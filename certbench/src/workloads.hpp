// The four certification workloads and the traced layer probes.
//
// A workload is driven as a closed loop by one client: set up (repeated
// several times, the last one kept), then one request after another. Every
// request is a certification of fresh seeded inputs whose outputs are
// checked by checks.hpp; a request whose check fails reports why.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "reference.hpp"
#include "trace.hpp"

namespace certbench {

struct RequestOutcome {
  std::size_t trials = 0;
  std::string failure;  // Empty when every output check passed.

  bool ok() const { return failure.empty(); }
  void fail(std::string_view where, const std::string& why) {
    if (failure.empty() && !why.empty()) failure = std::string(where) + ": " + why;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Everything up to the first timed request: inputs, hash families, prime
  // search, input checks, and one checked warm-up request. Throws
  // std::runtime_error when a set-up check fails.
  virtual void setup(Trace* trace) = 0;

  // One timed request; trace is null in untraced runs, `parent` is the
  // request span.
  virtual RequestOutcome request(std::uint64_t index, Trace* trace,
                                 std::uint32_t parent) = 0;

  // Traced runs only: layer measurements that need extra work beside the
  // request (timed outside the request span).
  virtual void traceExtras(std::uint64_t /*index*/, Trace& /*trace*/,
                           std::uint32_t /*parent*/) {}

  // Run-level check over every request so far; empty when it passes.
  virtual std::string finish() const { return {}; }
};

struct WorkloadInfo {
  std::string_view name;
  unsigned setups;  // Set-ups per run; setup_s is their median.
  ReferenceShape reference;
};

const WorkloadInfo* findWorkload(std::string_view name);

// `threads` is the whole run's thread budget (nproc).
std::unique_ptr<Workload> makeWorkload(std::string_view name, std::uint64_t seed,
                                       unsigned threads);

// Kernel and module probes run after every traced request, on inputs
// derived from (seed, request): Montgomery kernels at the sym P2 modulus,
// uncached family construction, instance generation, automorphism and
// canonical-form search, BFS, the batch row hash and the wire codecs.
void runProbes(std::uint64_t seed, std::uint64_t request, Trace& trace,
               std::uint32_t parent);

// Seed combiner shared by the workloads and the probes.
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

}  // namespace certbench
