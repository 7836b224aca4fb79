// Shared pieces of the end-to-end benchmark program: wall-clock spans taken
// around calls into the GroupCast libraries, and the per-round result every
// workload returns.  Nothing here reaches inside src/: layers are timed at
// their public entry points and counted through their public accessors.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace groupcast::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The process's peak resident set so far, in MB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Accumulating stopwatch: simulate_s excludes the benchmark's own checks,
/// which run between timed segments.
class Stopwatch {
 public:
  void start() { started_ = Clock::now(); }
  void stop() { total_ += seconds_between(started_, Clock::now()); }
  double seconds() const { return total_; }

 private:
  Clock::time_point started_;
  double total_ = 0.0;
};

/// One timed call into a layer.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder.  Disabled (untraced rounds) it records nothing,
/// so the untraced end-to-end timings carry no tracing work at all.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its index (-1 while disabled).
  int begin(const char* name);
  /// Closes span `index`.
  void end(int index);

  /// Scoped begin/end around one call into a layer.
  class Scope {
   public:
    Scope(Spans& spans, const char* name)
        : spans_(spans), index_(spans.begin(name)) {}
    ~Scope() { spans_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_;
  };

  /// Summed duration of every span with this name.
  double total_s(const std::string& name) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// What one round of a workload produced.
struct RoundResult {
  double setup_s = 0.0;
  double simulate_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double messages_per_subscriber = 0.0;
  double delivery_delay_ms = 0.0;
  /// Peak resident set at the end of the round, before the façade
  /// comparison builds a second world.
  double peak_rss_mb = 0.0;
  /// Per-layer values (traced rounds only): timings in seconds, counts,
  /// sizes in MB.  Names match BENCHMARK.json's per_layer list.
  std::map<std::string, double> layers;
  /// Deterministic outputs (message counts by kind, deliveries, events,
  /// failures), compared across rounds and between traced and untraced.
  std::string digest;
  /// Output-check violations; any entry makes the run incorrect.
  std::vector<std::string> violations;
  /// One-line human summary for stderr.
  std::string summary;
};

/// Inputs shared by every workload.
struct RoundOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  /// Rebuild the world through the façade and compare, at the end of the
  /// round (first round only: it doubles the world-build cost).
  bool verify_world = false;
};

RoundResult run_paper_groups(const RoundOptions& options);
RoundResult run_churn_repair(const RoundOptions& options);
RoundResult run_stream_flash(const RoundOptions& options);

}  // namespace groupcast::perfbench
