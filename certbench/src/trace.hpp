// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent span, request id). Spans are recorded
// from the benchmark's own code around calls into the dip modules; the
// program under measurement is not instrumented. The Trace is owned and
// written by the main thread only: spans of work that runs on trial
// threads are first stamped into per-trial slots (TrialSlot) and appended by
// the main thread after the batch joins, so recording takes no lock.
//
// Request id 0 is the set-up; timed requests are numbered from 1.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace certbench {

// Nanoseconds on the steady clock since the first call in the process.
std::int64_t nowNs();

struct Span {
  const char* name = "";
  std::uint32_t parent = 0;   // Id of the causing span, 0 = none.
  std::uint32_t request = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

struct Counter {
  const char* name = "";
  std::uint32_t request = 0;
  double value = 0.0;
};

class Trace {
 public:
  void setRequest(std::uint32_t request) { request_ = request; }

  // Span ids are 1-based positions in spans().
  std::uint32_t open(const char* name, std::uint32_t parent);
  void close(std::uint32_t id);
  std::uint32_t add(const char* name, std::uint32_t parent, std::int64_t start,
                    std::int64_t end);
  void count(const char* name, double value);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Counter>& counters() const { return counters_; }

  // One line per span ("span id parent request name start_ns end_ns") and
  // per counter ("counter request name value").
  void write(std::ostream& out) const;

 private:
  std::uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

// RAII span; a no-op when trace is null (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, std::uint32_t parent)
      : trace_(trace), id_(trace ? trace->open(name, parent) : 0) {}
  ~ScopedSpan() {
    if (trace_) trace_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  std::uint32_t id_;
};

// Timestamps of one trial, written only by the thread that runs it.
struct TrialSlot {
  static constexpr unsigned kMaxProverCalls = 2;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t proverStart[kMaxProverCalls] = {};
  std::int64_t proverEnd[kMaxProverCalls] = {};
  unsigned proverCalls = 0;
};

// Appends one "sim.trial" span per slot under `parent`, with a
// "core.prover" child span per recorded prover call.
void appendTrialSpans(Trace& trace, std::uint32_t parent,
                      const std::vector<TrialSlot>& slots);

// Times fn() as one prover call of the trial that owns `slot`.
template <typename Fn>
auto timedProverCall(TrialSlot& slot, Fn&& fn) {
  const std::int64_t start = nowNs();
  auto result = fn();
  if (slot.proverCalls < TrialSlot::kMaxProverCalls) {
    slot.proverStart[slot.proverCalls] = start;
    slot.proverEnd[slot.proverCalls] = nowNs();
    ++slot.proverCalls;
  }
  return result;
}

}  // namespace certbench
