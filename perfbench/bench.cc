#include "bench.h"

namespace groupcast::perfbench {

int Spans::begin(const char* name) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, Clock::now(), {}});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
}

double Spans::total_s(const std::string& name) const {
  double total = 0.0;
  for (const auto& span : spans_) {
    if (span.name == name) total += seconds_between(span.start, span.end);
  }
  return total;
}

}  // namespace groupcast::perfbench
