#include "checks.h"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace groupcast::perfbench {

namespace {

/// Caps what one checker call writes, so a badly broken run reports a
/// handful of examples and a count instead of a message per operation.
class Reporter {
 public:
  Reporter(const char* check, Violations& out) : check_(check), out_(out) {}
  ~Reporter() {
    if (count_ > kShown) {
      out_.push_back(std::string(check_) + ": " +
                     std::to_string(count_ - kShown) + " more violations");
    }
  }
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  void add(const std::string& message) {
    if (++count_ <= kShown) {
      out_.push_back(std::string(check_) + ": " + message);
    }
  }

 private:
  static constexpr std::size_t kShown = 5;
  const char* check_;
  Violations& out_;
  std::size_t count_ = 0;
};

std::string peer(PeerId p) { return std::to_string(p); }

}  // namespace

void check_tree(const TreeView& tree, const EdgePredicate& edge_ok,
                Violations& out) {
  Reporter report("tree", out);
  const auto root_it = tree.parent.find(tree.root);
  if (root_it == tree.parent.end() || root_it->second != tree.root) {
    report.add("root " + peer(tree.root) + " is not its own parent");
  }
  for (const auto& [child, parent] : tree.parent) {
    if (child == tree.root) continue;
    if (!tree.parent.contains(parent)) {
      report.add("parent " + peer(parent) + " of " + peer(child) +
                 " is not on the tree");
    } else if (!edge_ok(child, parent)) {
      report.add("tree edge " + peer(child) + "-" + peer(parent) +
                 " is not an allowed edge");
    }
  }
  const std::size_t limit = tree.parent.size();
  for (const auto s : tree.subscribers) {
    PeerId at = s;
    std::size_t steps = 0;
    while (at != tree.root && steps <= limit) {
      const auto it = tree.parent.find(at);
      if (it == tree.parent.end()) break;
      at = it->second;
      ++steps;
    }
    if (at != tree.root) {
      report.add("subscriber " + peer(s) +
                 (steps > limit ? " sits on a parent cycle"
                                : " does not reach the root"));
    }
  }
}

void check_session_delays(const TreeView& tree, const LatencyMs& latency,
                          const std::unordered_map<PeerId, double>& delay_ms,
                          Violations& out) {
  Reporter report("session delay", out);
  for (const auto s : tree.subscribers) {
    if (s == tree.root) continue;
    const auto it = delay_ms.find(s);
    if (it == delay_ms.end()) {
      report.add("subscriber " + peer(s) + " has no session delay");
      continue;
    }
    double path_ms = 0.0;
    PeerId at = s;
    for (std::size_t steps = 0; at != tree.root; ++steps) {
      const auto up = tree.parent.find(at);
      if (up == tree.parent.end() || steps > tree.parent.size()) {
        path_ms = -1.0;
        break;
      }
      path_ms += latency(at, up->second);
      at = up->second;
    }
    if (path_ms < 0.0) {
      report.add("subscriber " + peer(s) + " has no path to the root");
      continue;
    }
    const double tolerance = 1e-9 * std::max(1.0, path_ms);
    if (std::abs(it->second - path_ms) > tolerance) {
      report.add("subscriber " + peer(s) + " delay " +
                 std::to_string(it->second) + " ms != path sum " +
                 std::to_string(path_ms) + " ms");
    }
    if (it->second + tolerance < latency(tree.root, s)) {
      report.add("subscriber " + peer(s) + " delay " +
                 std::to_string(it->second) +
                 " ms is below the direct latency");
    }
  }
}

void check_advert_parents(const std::vector<PeerId>& parent,
                          PeerId rendezvous, const EdgePredicate& overlay_edge,
                          Violations& out) {
  Reporter report("advert parent", out);
  for (PeerId p = 0; p < parent.size(); ++p) {
    if (parent[p] == overlay::kNoPeer || p == rendezvous) continue;
    if (parent[p] >= parent.size() || !overlay_edge(p, parent[p])) {
      report.add("peer " + peer(p) + " got the advertisement from " +
                 peer(parent[p]) + ", not an overlay neighbour");
    }
  }
}

void check_deliveries(const std::vector<Delivery>& log,
                      const DeliveryRules& rules, Violations& out) {
  Reporter report("delivery", out);
  std::vector<std::tuple<PeerId, PeerId, std::uint64_t>> keys;
  keys.reserve(log.size());
  for (const auto& d : log) {
    keys.emplace_back(d.receiver, d.origin, d.payload);
    if (rules.crashed(d.receiver)) {
      report.add("crashed node " + peer(d.receiver) + " received payload " +
                 std::to_string(d.payload));
    }
    if (!rules.is_member(d.receiver, d.origin)) {
      report.add("non-member " + peer(d.receiver) + " received payload " +
                 std::to_string(d.payload));
    }
    const std::int64_t published = rules.published_us(d.origin, d.payload);
    if (published < 0) {
      report.add("payload " + std::to_string(d.payload) + " from " +
                 peer(d.origin) + " was never published");
      continue;
    }
    const std::int64_t earliest =
        published + rules.direct_us(d.origin, d.receiver) - kHopSlackUs;
    if (d.at_us < earliest) {
      report.add("payload " + std::to_string(d.payload) + " reached " +
                 peer(d.receiver) + " at " + std::to_string(d.at_us) +
                 " us, before publish + direct latency (" +
                 std::to_string(earliest + kHopSlackUs) + " us)");
    }
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] == keys[i - 1]) {
      report.add("payload " + std::to_string(std::get<2>(keys[i])) +
                 " delivered twice to " + peer(std::get<0>(keys[i])));
    }
  }
}

void check_kind_sum(const std::vector<std::size_t>& kinds, std::size_t total,
                    Violations& out) {
  std::size_t sum = 0;
  for (const auto k : kinds) sum += k;
  if (sum != total) {
    out.push_back("message kinds sum to " + std::to_string(sum) +
                  ", transport counted " + std::to_string(total));
  }
}

Violations run_self_tests() {
  Violations failures;
  const auto expect_rejected = [&failures](const char* fault,
                                           const Violations& found) {
    if (found.empty()) {
      failures.push_back(std::string("self-test: checker accepted ") + fault);
    }
  };
  // Overlay: a path 0-1-2-3 plus the chord 0-3.
  const EdgePredicate overlay_edge = [](PeerId a, PeerId b) {
    const auto lo = std::min(a, b), hi = std::max(a, b);
    return (hi == lo + 1 && hi <= 3) || (lo == 0 && hi == 3);
  };
  const LatencyMs latency = [](PeerId a, PeerId b) {
    return 10.0 * std::abs(static_cast<double>(a) - static_cast<double>(b));
  };

  TreeView good;
  good.root = 0;
  good.parent = {{0, 0}, {1, 0}, {2, 1}, {3, 0}};
  good.subscribers = {2, 3};
  {
    Violations v;
    check_tree(good, overlay_edge, v);
    check_session_delays(good, latency, {{2, 20.0}, {3, 30.0}}, v);
    if (!v.empty()) {
      failures.push_back("self-test: a correct tree was rejected");
    }
  }
  {
    TreeView cycle = good;
    cycle.parent[1] = 2;  // 1 -> 2 -> 1, detached from the root
    Violations v;
    check_tree(cycle, overlay_edge, v);
    expect_rejected("a parent cycle", v);
  }
  {
    TreeView stray = good;
    stray.parent[2] = 0;  // 0-2 is not an overlay edge
    Violations v;
    check_tree(stray, overlay_edge, v);
    expect_rejected("a non-overlay tree edge", v);
  }
  {
    Violations v;
    check_session_delays(good, latency, {{2, 25.0}, {3, 30.0}}, v);
    expect_rejected("a session delay off its path sum", v);
  }
  {
    Violations v;
    check_advert_parents({0, 0, 0, 0}, 0, overlay_edge, v);  // 2 <- 0
    expect_rejected("an advertisement from a non-neighbour", v);
  }

  DeliveryRules rules;
  rules.is_member = [](PeerId p, PeerId) { return p != 3; };
  rules.crashed = [](PeerId p) { return p == 2; };
  rules.published_us = [](PeerId origin, std::uint64_t payload) {
    return origin == 0 && payload == 7 ? std::int64_t{1000} : -1;
  };
  rules.direct_us = [](PeerId a, PeerId b) {
    return 10'000 * std::abs(static_cast<std::int64_t>(a) -
                             static_cast<std::int64_t>(b));
  };
  const Delivery ok{1, 0, 7, 11'000};
  {
    Violations v;
    check_deliveries({ok}, rules, v);
    if (!v.empty()) {
      failures.push_back("self-test: a correct delivery was rejected");
    }
  }
  {
    Violations v;
    check_deliveries({ok, ok}, rules, v);
    expect_rejected("a duplicated delivery", v);
  }
  {
    Violations v;
    check_deliveries({Delivery{1, 0, 7, 5'000}}, rules, v);
    expect_rejected("an arrival earlier than its latency bound", v);
  }
  {
    Violations v;
    check_deliveries({Delivery{2, 0, 7, 30'000}}, rules, v);
    expect_rejected("a delivery to a crashed node", v);
  }
  {
    Violations v;
    check_deliveries({Delivery{3, 0, 7, 40'000}}, rules, v);
    expect_rejected("a delivery to a non-member", v);
  }
  {
    Violations v;
    check_kind_sum({3, 4}, 8, v);
    expect_rejected("message kinds that do not sum to the total", v);
  }
  return failures;
}

}  // namespace groupcast::perfbench
