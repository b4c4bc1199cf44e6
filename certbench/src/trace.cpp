#include "trace.hpp"

namespace certbench {

std::int64_t nowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint32_t Trace::open(const char* name, std::uint32_t parent) {
  const std::int64_t start = nowNs();
  return add(name, parent, start, start);
}

void Trace::close(std::uint32_t id) { spans_[id - 1].end = nowNs(); }

std::uint32_t Trace::add(const char* name, std::uint32_t parent, std::int64_t start,
                         std::int64_t end) {
  spans_.push_back(Span{name, parent, request_, start, end});
  return static_cast<std::uint32_t>(spans_.size());
}

void Trace::count(const char* name, double value) {
  counters_.push_back(Counter{name, request_, value});
}

void Trace::write(std::ostream& out) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "span " << (i + 1) << ' ' << s.parent << ' ' << s.request << ' ' << s.name
        << ' ' << s.start << ' ' << s.end << '\n';
  }
  for (const Counter& c : counters_) {
    out << "counter " << c.request << ' ' << c.name << ' ' << c.value << '\n';
  }
}

void appendTrialSpans(Trace& trace, std::uint32_t parent,
                      const std::vector<TrialSlot>& slots) {
  for (const TrialSlot& slot : slots) {
    const std::uint32_t trial = trace.add("sim.trial", parent, slot.start, slot.end);
    for (unsigned k = 0; k < slot.proverCalls; ++k) {
      trace.add("core.prover", trial, slot.proverStart[k], slot.proverEnd[k]);
    }
  }
}

}  // namespace certbench
