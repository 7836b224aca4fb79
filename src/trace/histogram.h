// Deterministic log-binned sim-time histograms.
//
// The fourth trace facility (after sinks, counters, and wall-clock
// timers): distributions of simulated-time quantities — per-edge delivery
// latency, payload hop counts, end-to-end delay, NACK-to-repair time.
// Samples land in log2-spaced bins with integer count/sum/min/max
// summaries, so two histograms merge by element-wise integer accumulation
// — associative and order-independent, exactly like CounterSnapshot.
// That makes histograms safe under `run_scenario_grid --jobs=N`: each run
// records into an injected per-run registry (ScopedHistogramRegistry, the
// ScopedCounterRegistry pattern) and the seed-order reduction merges the
// snapshots, so output is byte-identical at any job count.
//
// Disabled by default: record() is then a single predictable branch, so
// the figure-sweep benches pay nothing.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "trace/event.h"

namespace groupcast::trace {

enum class HistogramId : std::uint8_t {
  kEdgeDelayUs = 0,   // transport latency of each delivered message, µs
  kHopCount,          // tree edges traversed by each accepted payload copy
  kEndToEndDelayUs,   // publish-to-deliver delay per probe payload, µs
  kNackRepairUs,      // first NACK to in-order repair per rx-edge gap, µs
  kWindowOccupancy,   // in-flight seqs per windowed send (flow control on)
  kThrottleUs,        // duration of each sender throttle episode, µs
  kHandoffUs,         // lease-expiry detection to committed takeover, µs
  kChunkSlackUs,      // deadline minus arrival per on-time chunk, µs
  kStartupDelayUs,    // stream start to first played chunk per viewer, µs
  kCount_,
};

inline constexpr std::size_t kHistogramIds =
    static_cast<std::size_t>(HistogramId::kCount_);

const char* to_string(HistogramId id);

/// Bins are log2-spaced: bin 0 holds the value 0, bin b >= 1 holds values
/// in [2^(b-1), 2^b), and the last bin absorbs everything above 2^62.
inline constexpr std::size_t kHistogramBins = 64;

inline constexpr std::size_t histogram_bin(std::uint64_t value) {
  const auto width = static_cast<std::size_t>(std::bit_width(value));
  return width < kHistogramBins ? width : kHistogramBins - 1;
}

/// Smallest value that maps to `bin` (the bin's inclusive lower bound).
inline constexpr std::uint64_t histogram_bin_floor(std::size_t bin) {
  return bin == 0 ? 0 : std::uint64_t{1} << (bin - 1);
}

/// One distribution: per-bin counts plus exact integer summaries.
struct HistogramData {
  std::array<std::uint64_t, kHistogramBins> bins{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // valid only when count > 0
  std::uint64_t max = 0;

  void record(std::uint64_t value) {
    ++bins[histogram_bin(value)];
    if (count == 0 || value < min) min = value;
    if (count == 0 || value > max) max = value;
    ++count;
    sum += value;
  }

  /// Element-wise integer accumulation; order-independent.
  void merge(const HistogramData& other);

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Lower bound of the bin holding the p-th percentile sample
  /// (0 <= p <= 1); exact for min/max, bin-resolution otherwise.
  std::uint64_t percentile(double p) const;

  friend bool operator==(const HistogramData&, const HistogramData&) = default;
};

/// Point-in-time copy of every histogram, safe to keep after reset().
struct HistogramSnapshot {
  std::array<HistogramData, kHistogramIds> data{};

  const HistogramData& of(HistogramId id) const {
    return data[static_cast<std::size_t>(id)];
  }
  bool empty() const {
    for (const auto& h : data) {
      if (h.count != 0) return false;
    }
    return true;
  }

  /// Merges `other` into this snapshot; associative and
  /// order-independent, like CounterSnapshot::merge.
  void merge(const HistogramSnapshot& other);

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

class HistogramRegistry {
 public:
  bool enabled() const { return enabled_; }

  /// Turns recording on and clears previous samples.
  void enable();
  /// Turns recording off; samples are kept until enable() or reset().
  void disable() { enabled_ = false; }

  /// Records one sample; no-op (one branch) while disabled.
  void record(HistogramId id, std::uint64_t value) {
    if (!enabled_) return;
    data_[static_cast<std::size_t>(id)].record(value);
  }

  const HistogramData& of(HistogramId id) const {
    return data_[static_cast<std::size_t>(id)];
  }

  HistogramSnapshot snapshot() const;
  /// Zeroes every histogram; the enabled state is unchanged.
  void reset();

  /// Accumulates a snapshot into this registry (no-op while disabled) —
  /// folds an isolated per-run registry's results back into an outer one.
  void merge(const HistogramSnapshot& snap);

 private:
  bool enabled_ = false;
  std::array<HistogramData, kHistogramIds> data_{};
};

/// The calling thread's active histogram registry.  Defaults to a
/// per-thread instance; redirect with ScopedHistogramRegistry.
HistogramRegistry& histograms();

/// RAII injection: routes this thread's trace::histograms() to `registry`
/// for the guard's lifetime.  Guards nest; destruction restores the
/// previous target.  The guard must be destroyed on the thread that
/// created it.
class ScopedHistogramRegistry {
 public:
  explicit ScopedHistogramRegistry(HistogramRegistry& registry);
  ~ScopedHistogramRegistry();
  ScopedHistogramRegistry(const ScopedHistogramRegistry&) = delete;
  ScopedHistogramRegistry& operator=(const ScopedHistogramRegistry&) = delete;

 private:
  HistogramRegistry* previous_;
};

}  // namespace groupcast::trace
