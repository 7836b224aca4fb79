// groupcast_perfbench: runs one benchmark workload for a fixed wall-clock
// budget in whole rounds (world build + simulation, same inputs every
// round), checks every round's outputs, and prints the metrics by name and
// unit, then one JSON object as the last line of standard output.
//
//   groupcast_perfbench --workload paper_groups --seed 3 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds and reports the per-layer metrics of the traced ones.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"

namespace groupcast::perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"simulate_s", "s"},
    {"peak_rss_mb", "MB"},
    {"messages_per_subscriber", "msgs"},
    {"delivery_delay_ms", "ms"},
};

/// Per-layer timings that split setup_s and simulate_s; what they do not
/// cover is reported as bench.setup_other_s / bench.simulate_other_s.
constexpr const char* kSetupLayers[] = {
    "net.underlay_s",     "net.routing_s",      "overlay.population_s",
    "overlay.host_cache_s", "overlay.bootstrap_s", "runtime.start_s"};
constexpr const char* kSimulateLayers[] = {
    "core.announce_ssa_s", "core.announce_nssa_s", "core.subscribe_s",
    "core.session_s",      "runtime.establish_s",  "runtime.churn_s",
    "runtime.traffic_s"};

constexpr Metric kPerLayer[] = {
    {"net.underlay_s", "s"},
    {"net.routing_s", "s"},
    {"overlay.population_s", "s"},
    {"overlay.host_cache_s", "s"},
    {"overlay.bootstrap_s", "s"},
    {"overlay.edges", "count"},
    {"overlay.graph_mb", "MB"},
    {"core.announce_ssa_s", "s"},
    {"core.announce_nssa_s", "s"},
    {"core.subscribe_s", "s"},
    {"core.session_s", "s"},
    {"core.advert_msgs", "count"},
    {"core.subscription_msgs", "count"},
    {"core.ripple_retries", "count"},
    {"sim.engine_events", "count"},
    {"runtime.start_s", "s"},
    {"runtime.establish_s", "s"},
    {"runtime.churn_s", "s"},
    {"runtime.traffic_s", "s"},
    {"sim.events", "count"},
    {"sim.queue_high_water", "count"},
    {"sim.ns_per_event", "ns"},
    {"transport.msgs.advertisement", "count"},
    {"transport.msgs.ripple_search", "count"},
    {"transport.msgs.ripple_response", "count"},
    {"transport.msgs.join", "count"},
    {"transport.msgs.join_ack", "count"},
    {"transport.msgs.payload", "count"},
    {"transport.msgs.maintenance", "count"},
    {"transport.bytes_mb", "MB"},
    {"transport.lost", "count"},
    {"transport.ns_per_msg", "ns"},
    {"node.ripple_searches", "count"},
    {"node.heartbeats", "count"},
    {"node.control_retries", "count"},
    {"node.nacks", "count"},
    {"node.retransmits", "count"},
    {"node.dups_suppressed", "count"},
    {"node.flow_blocked", "count"},
    {"node.chunks_late", "count"},
    {"node.state_mb", "MB"},
    {"transport.state_mb", "MB"},
    {"sim.state_mb", "MB"},
    {"bench.setup_other_s", "s"},
    {"bench.simulate_other_s", "s"},
    {"bench.trace_overhead_s", "s"},
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: groupcast_perfbench --workload "
               "paper_groups|churn_repair|stream_flash --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

std::uint64_t parse_number(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return value;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1, seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = parse_number("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = parse_number("--seconds", value);
      have_seconds = true;
    } else if (flag == "--trace") {
      trace = parse_number("--trace", value);
      have_trace = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || trace > 1 || seconds == 0) {
    usage("--seed, --seconds >= 1 and --trace 0|1 are required");
  }
  RoundResult (*round)(const RoundOptions&) = nullptr;
  if (workload == "paper_groups") {
    round = run_paper_groups;
  } else if (workload == "churn_repair") {
    round = run_churn_repair;
  } else if (workload == "stream_flash") {
    round = run_stream_flash;
  } else {
    usage("unknown workload");
  }

  Violations violations = run_self_tests();
  const bool traced_run = trace == 1;
  std::vector<RoundResult> rounds;
  const auto started = Clock::now();
  for (std::size_t r = 0;; ++r) {
    RoundOptions options;
    options.seed = seed;
    // A traced run alternates untraced and traced rounds, so the tracing
    // overhead and the traced/untraced agreement come from one process.
    options.traced = traced_run && r % 2 == 1;
    options.verify_world = r == 0;
    rounds.push_back(round(options));
    if (r == 0) std::fprintf(stderr, "%s\n", rounds.back().summary.c_str());
    std::fprintf(stderr, "round %zu%s: setup_s %.4f simulate_s %.4f\n", r,
                 options.traced ? " (traced)" : "", rounds.back().setup_s,
                 rounds.back().simulate_s);
    const std::size_t min_rounds = traced_run ? 2 : 1;
    if (rounds.size() >= min_rounds && seconds_between(started, Clock::now()) >=
                                           static_cast<double>(seconds)) {
      break;
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const auto& one = rounds[r];
    attempted += one.attempted;
    failed += one.failed;
    for (const auto& v : one.violations) {
      violations.push_back("round " + std::to_string(r) + ": " + v);
    }
    if (one.digest != rounds.front().digest) {
      violations.push_back("round " + std::to_string(r) +
                           " deterministic outputs differ from round 0: " +
                           one.digest + " vs " + rounds.front().digest);
    }
  }
  for (const auto& v : violations) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", v.c_str());
  }

  std::vector<std::pair<const Metric*, double>> report;
  if (!traced_run) {
    std::vector<double> setup, simulate;
    for (const auto& one : rounds) {
      setup.push_back(one.setup_s);
      simulate.push_back(one.simulate_s);
    }
    const double values[] = {median(setup), median(simulate),
                             rounds.front().peak_rss_mb,
                             rounds.front().messages_per_subscriber,
                             rounds.front().delivery_delay_ms};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      report.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    std::vector<double> traced_total, untraced_total;
    std::vector<const RoundResult*> traced;
    for (const auto& one : rounds) {
      (one.layers.empty() ? untraced_total : traced_total)
          .push_back(one.setup_s + one.simulate_s);
      if (!one.layers.empty()) traced.push_back(&one);
    }
    for (const auto& metric : kPerLayer) {
      const std::string name = metric.name;
      std::vector<double> samples;
      for (const auto* one : traced) {
        double value = 0.0;
        if (name == "bench.setup_other_s") {
          value = one->setup_s;
          for (const char* layer : kSetupLayers) {
            const auto it = one->layers.find(layer);
            if (it != one->layers.end()) value -= it->second;
          }
        } else if (name == "bench.simulate_other_s") {
          value = one->simulate_s;
          for (const char* layer : kSimulateLayers) {
            const auto it = one->layers.find(layer);
            if (it != one->layers.end()) value -= it->second;
          }
        } else if (name == "bench.trace_overhead_s") {
          value = median(traced_total) - median(untraced_total);
        } else {
          const auto it = one->layers.find(name);
          if (it != one->layers.end()) value = it->second;
        }
        samples.push_back(value);
      }
      report.emplace_back(&metric, median(samples));
    }
  }

  std::printf("%s: %zu rounds, %llu operations attempted, %llu failed, %s\n",
              workload.c_str(), rounds.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              violations.empty() ? "outputs correct" : "OUTPUT CHECKS FAILED");
  for (const auto& [metric, value] : report) {
    std::printf("  %-32s %14.6f %s\n", metric->name, value, metric->unit);
  }
  std::string json = "{\"correct\": ";
  json += violations.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", report[i].second);
    json += (i == 0 ? "\"" : ", \"") + std::string(report[i].first->name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            report[i].first->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace groupcast::perfbench

int main(int argc, char** argv) {
  try {
    return groupcast::perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
