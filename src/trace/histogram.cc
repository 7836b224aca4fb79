#include "trace/histogram.h"

namespace groupcast::trace {

const char* to_string(HistogramId id) {
  switch (id) {
    case HistogramId::kEdgeDelayUs:
      return "edge_delay_us";
    case HistogramId::kHopCount:
      return "hop_count";
    case HistogramId::kEndToEndDelayUs:
      return "end_to_end_delay_us";
    case HistogramId::kNackRepairUs:
      return "nack_repair_us";
    case HistogramId::kWindowOccupancy:
      return "window_occupancy";
    case HistogramId::kThrottleUs:
      return "throttle_us";
    case HistogramId::kHandoffUs:
      return "handoff_us";
    case HistogramId::kChunkSlackUs:
      return "chunk_slack_us";
    case HistogramId::kStartupDelayUs:
      return "startup_delay_us";
    case HistogramId::kCount_:
      break;
  }
  return "?";
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count == 0) return;
  for (std::size_t b = 0; b < kHistogramBins; ++b) bins[b] += other.bins[b];
  if (count == 0 || other.min < min) min = other.min;
  if (count == 0 || other.max > max) max = other.max;
  count += other.count;
  sum += other.sum;
}

std::uint64_t HistogramData::percentile(double p) const {
  if (count == 0) return 0;
  if (p <= 0.0) return min;
  if (p >= 1.0) return max;
  const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(count));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBins; ++b) {
    seen += bins[b];
    if (seen > rank) return histogram_bin_floor(b);
  }
  return max;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (std::size_t i = 0; i < kHistogramIds; ++i) data[i].merge(other.data[i]);
}

void HistogramRegistry::enable() {
  reset();
  enabled_ = true;
}

HistogramSnapshot HistogramRegistry::snapshot() const {
  HistogramSnapshot snap;
  snap.data = data_;
  return snap;
}

void HistogramRegistry::reset() {
  for (auto& h : data_) h = HistogramData{};
}

void HistogramRegistry::merge(const HistogramSnapshot& snap) {
  if (!enabled_) return;
  for (std::size_t i = 0; i < kHistogramIds; ++i) {
    data_[i].merge(snap.data[i]);
  }
}

namespace {
// The per-thread injection point; see ScopedHistogramRegistry.  Mirrors
// tl_active_counters in counters.cc.
thread_local HistogramRegistry* tl_active_histograms = nullptr;
}  // namespace

HistogramRegistry& histograms() {
  if (tl_active_histograms != nullptr) return *tl_active_histograms;
  thread_local HistogramRegistry instance;
  return instance;
}

ScopedHistogramRegistry::ScopedHistogramRegistry(HistogramRegistry& registry)
    : previous_(tl_active_histograms) {
  tl_active_histograms = &registry;
}

ScopedHistogramRegistry::~ScopedHistogramRegistry() {
  tl_active_histograms = previous_;
}

}  // namespace groupcast::trace
