// Host-speed reference: a fixed compute batch owned by the benchmark.
//
// The benchmark shares its host's cores with other tenants, and the speed
// those cores give it drifts by up to 1.6x over minutes while the process
// itself sees neither steal time nor a performance-counter unit. So every
// timed request (and every set-up) is followed by one reference batch, a
// fixed amount of 64-bit multiplies and dependent table loads spread over
// `threads` threads in the workload's shape, outside the timed interval. A time scaled by
// kReferenceMs / (reference time around it) is that time on a host where the
// batch takes kReferenceMs: the program's own changes move it, the host's
// drift largely does not. The reference code lives here, not in src/, so no
// change to the program can speed it up or slow it down.
#pragma once

#include <cstdint>
#include <vector>

namespace certbench {

// The reference batch's time on the reference host (README) in a calm period.
inline constexpr double kReferenceMs = 6.0;

// kShared: every thread claims chunks from one counter, as TrialRunner
// claims trials. kRounds: the same, split into kMutators rounds on freshly
// spawned threads, as adv::stress* runs one TrialRunner batch per mutator;
// its time also follows how fast the host starts and wakes threads.
// kHandoff: the calling thread hands chunks over pipes to
// threads-1 workers that block between them, two outstanding per worker, as
// the dipd coordinator hands ranges to its workers; its time also follows
// how fast the host wakes a blocked vCPU.
enum class ReferenceShape { kShared, kRounds, kHandoff };

class HostReference {
 public:
  HostReference(unsigned threads, ReferenceShape shape);

  // Runs one batch and returns its wall time. Its threads end with it.
  double batchMs();

 private:
  double sharedMs(std::size_t rounds);
  double handoffMs();

  unsigned threads_;
  ReferenceShape shape_;
  std::vector<std::uint64_t> table_;
};

// Per-sample scale factors for samples each followed by one reference batch:
// kReferenceMs over the median of the batches within four samples of it.
std::vector<double> speedScale(const std::vector<double>& referenceMs);

}  // namespace certbench
