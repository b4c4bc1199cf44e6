// certbench: time to a certified verdict, end to end and per layer.
//
//   certbench --workload sym|gni|mutants|fleet --seed N --seconds S --trace 0|1
//             [--spans FILE]
//   certbench --selftest
//
// One client drives the workload as a closed loop: S set-ups (their median
// is setup_s), then request after request for --seconds. Untraced runs
// (--trace 0) report the end-to-end metrics. Traced runs (--trace 1) spend
// the first half untraced and the second half recording spans, report the
// per-layer metrics as per-request medians of those spans, and the tracing
// overhead as the difference of the two halves' median request latency.
// Every set-up and request is followed by an untimed reference batch, and
// the reported times are scaled to the reference host's speed
// (reference.hpp); the unscaled figures are printed beside them.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "adv/stress.hpp"
#include "checks.hpp"
#include "core/gni_amam.hpp"
#include "core/sym_dmam.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "hash/batch_eval.hpp"
#include "hash/linear_hash.hpp"
#include "reference.hpp"
#include "sim/acceptance.hpp"
#include "sim/distributed.hpp"
#include "sim/dryrun.hpp"
#include "sim/workload.hpp"
#include "sym_fixture.hpp"
#include "trace.hpp"
#include "util/bitio.hpp"
#include "workloads.hpp"

namespace certbench {
namespace {

using namespace dip;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "certbench: " << why << "\n"
            << "usage: certbench --workload sym|gni|mutants|fleet --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n"
               "       certbench --selftest\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(arg));
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
        haveWorkload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--spans") {
        o.spans = value;
      } else {
        usage("unknown argument " + std::string(arg));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(arg));
    }
  }
  if (!o.selftest && (!haveWorkload || findWorkload(o.workload) == nullptr)) {
    usage("--workload must be one of sym, gni, mutants, fleet");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// CPUs this process may run on (what `nproc` prints).
unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);  // Reaped fleet workers.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

std::vector<double> scaled(std::vector<double> values, const std::vector<double>& scale) {
  for (std::size_t i = 0; i < values.size(); ++i) values[i] *= scale[i];
  return values;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ---- Per-layer metrics from the spans of one traced request --------------

class RequestView {
 public:
  void addSpan(const Span& span) {
    spanSums_[span.name] += static_cast<double>(span.end - span.start);
    ++spanCounts_[span.name];
  }
  void addCounter(const Counter& counter) { counters_[counter.name] += counter.value; }

  double ns(std::string_view name) const { return find(spanSums_, name); }
  double spans(std::string_view name) const {
    const auto it = spanCounts_.find(name);
    return it == spanCounts_.end() ? 0.0 : static_cast<double>(it->second);
  }
  double counter(std::string_view name) const { return find(counters_, name); }

 private:
  // Keys view the string literals that name spans and counters.
  using Sums = std::map<std::string_view, double>;
  static double find(const Sums& m, std::string_view key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  }
  Sums spanSums_;
  std::map<std::string_view, std::size_t> spanCounts_;
  Sums counters_;
};

struct LayerMetric {
  const char* name;
  const char* unit;
  double (*value)(const RequestView& r, unsigned threads);
};

double perOp(double total, double ops) { return ops > 0.0 ? total / ops : 0.0; }

double batteryNs(const RequestView& r) {
  return r.ns("adv.sym_dmam_battery") + r.ns("adv.sym_dam_battery") +
         r.ns("adv.dsym_dam_battery") + r.ns("adv.sym_input_battery");
}
double busyNs(const RequestView& r) {
  return r.ns("sim.trial") + r.counter("sim.trial_busy_ns");
}

// Layers the workload does not exercise read 0 (e.g. rpc.* off `fleet`).
const std::vector<LayerMetric>& layerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"util.mulmod_ns", "ns",
       [](const RequestView& r, unsigned) {
         return perOp(r.ns("util.mulmod"), r.counter("util.mulmod_ops"));
       }},
      {"util.powmod_us", "us",
       [](const RequestView& r, unsigned) {
         return perOp(r.ns("util.powmod") / 1e3, r.counter("util.powmod_ops"));
       }},
      {"util.family_build_ms", "ms",
       [](const RequestView& r, unsigned) { return r.ns("util.family_build") / 1e6; }},
      {"hash.matrix_rows_us", "us",
       [](const RequestView& r, unsigned) { return r.ns("hash.matrix_rows") / 1e3; }},
      {"hash.field_bits", "bit",
       [](const RequestView& r, unsigned) { return r.counter("hash.field_bits"); }},
      {"graph.instance_ms", "ms",
       [](const RequestView& r, unsigned) { return r.ns("graph.instance") / 1e6; }},
      {"graph.automorphism_ms", "ms",
       [](const RequestView& r, unsigned) { return r.ns("graph.automorphism") / 1e6; }},
      {"graph.canonical_us", "us",
       [](const RequestView& r, unsigned) { return r.ns("graph.canonical") / 1e3; }},
      {"net.bfs_us", "us",
       [](const RequestView& r, unsigned) { return r.ns("net.bfs") / 1e3; }},
      {"core.prover_ms", "ms",
       [](const RequestView& r, unsigned) { return r.ns("core.prover") / 1e6; }},
      {"core.verifier_ms", "ms",
       [](const RequestView& r, unsigned) {
         return (r.ns("sim.trial") - r.ns("core.prover")) / 1e6;
       }},
      {"core.encode_us", "us",
       [](const RequestView& r, unsigned) { return r.ns("core.encode") / 1e3; }},
      {"core.decode_us", "us",
       [](const RequestView& r, unsigned) { return r.ns("core.decode") / 1e3; }},
      {"core.wire_bits", "bit",
       [](const RequestView& r, unsigned) { return r.counter("core.wire_bits"); }},
      {"core.max_bits_per_node", "bit",
       [](const RequestView& r, unsigned) { return r.counter("core.max_bits_per_node"); }},
      {"adv.sym_dmam_battery_ms", "ms",
       [](const RequestView& r, unsigned) { return r.ns("adv.sym_dmam_battery") / 1e6; }},
      {"adv.sym_dam_battery_ms", "ms",
       [](const RequestView& r, unsigned) { return r.ns("adv.sym_dam_battery") / 1e6; }},
      {"adv.dsym_dam_battery_ms", "ms",
       [](const RequestView& r, unsigned) { return r.ns("adv.dsym_dam_battery") / 1e6; }},
      {"adv.sym_input_battery_ms", "ms",
       [](const RequestView& r, unsigned) { return r.ns("adv.sym_input_battery") / 1e6; }},
      {"adv.mutant_trials", "count",
       [](const RequestView& r, unsigned) { return r.counter("adv.mutant_trials"); }},
      {"adv.decode_rejected", "count",
       [](const RequestView& r, unsigned) { return r.counter("adv.decode_rejected"); }},
      {"adv.accepts", "count",
       [](const RequestView& r, unsigned) { return r.counter("adv.accepts"); }},
      {"sim.trial_busy_ms", "ms",
       [](const RequestView& r, unsigned) { return busyNs(r) / 1e6; }},
      {"sim.runner_overhead_ms", "ms",
       [](const RequestView& r, unsigned threads) {
         const double wall = r.ns("sim.run") + batteryNs(r);
         return wall > 0.0 ? (wall - busyNs(r) / threads) / 1e6 : 0.0;
       }},
      {"sim.run_range_calls", "count",
       [](const RequestView& r, unsigned) {
         return r.spans("sim.run") + r.counter("sim.run_range_calls");
       }},
      {"sim.fleet_reissues", "count",
       [](const RequestView& r, unsigned) { return r.counter("sim.fleet_reissues"); }},
      {"sim.fleet_duplicates", "count",
       [](const RequestView& r, unsigned) { return r.counter("sim.fleet_duplicates"); }},
      {"sim.fleet_live_workers", "count",
       [](const RequestView& r, unsigned) { return r.counter("sim.fleet_live_workers"); }},
      {"rpc.request_ms", "ms",
       [](const RequestView& r, unsigned) { return r.ns("rpc.request") / 1e6; }},
      {"rpc.inprocess_ms", "ms",
       [](const RequestView& r, unsigned) { return r.ns("rpc.inprocess") / 1e6; }},
      {"rpc.overhead_ms", "ms",
       [](const RequestView& r, unsigned) {
         return (r.ns("rpc.request") - r.ns("rpc.inprocess")) / 1e6;
       }},
      {"rpc.ranges", "count",
       [](const RequestView& r, unsigned) { return r.counter("rpc.ranges"); }},
  };
  return metrics;
}

std::vector<Metric> perLayerMetrics(const Trace& trace, unsigned threads,
                                    double overheadMs) {
  std::map<std::uint32_t, RequestView> requests;
  std::vector<double> spawnMs;
  for (const Span& span : trace.spans()) {
    if (span.request == 0) {
      if (std::string_view(span.name) == "sim.fleet_spawn") {
        spawnMs.push_back(static_cast<double>(span.end - span.start) / 1e6);
      }
      continue;
    }
    requests[span.request].addSpan(span);
  }
  for (const Counter& counter : trace.counters()) {
    if (counter.request != 0) requests[counter.request].addCounter(counter);
  }
  std::vector<Metric> out;
  for (const LayerMetric& metric : layerMetrics()) {
    std::vector<double> values;
    for (const auto& [id, view] : requests) values.push_back(metric.value(view, threads));
    out.push_back({metric.name, median(values), metric.unit});
  }
  out.push_back({"sim.fleet_spawn_ms", median(spawnMs), "ms"});
  out.push_back({"trace.overhead_ms", overheadMs, "ms"});
  return out;
}

// ---- The run --------------------------------------------------------------

void printHost(const Options& o, unsigned threads) {
  std::cout << "certbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0) << "\n";
  std::cout << "host: nproc=" << threads << " avx2=" << (hash::avx2Enabled() ? "yes" : "no")
            << " compiler=\"" <<
#if defined(__clang__)
      "clang "
#elif defined(__GNUC__)
      "gcc "
#endif
            << __VERSION__ << "\" build=" << CERTBENCH_BUILD_TYPE << "\n";
}

std::string jsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

int runWorkload(const Options& o) {
  const WorkloadInfo& info = *findWorkload(o.workload);
  const unsigned threads = nproc();
  printHost(o, threads);

  Trace trace;
  HostReference reference(threads, info.reference);
  std::vector<double> setupSeconds;
  std::vector<double> setupReferenceMs;
  std::unique_ptr<Workload> workload;
  for (unsigned s = 0; s < info.setups; ++s) {
    workload.reset();  // A fleet session shuts down before the next forks.
    workload = makeWorkload(o.workload, o.seed, threads);
    const std::int64_t start = nowNs();
    workload->setup(o.trace ? &trace : nullptr);
    setupSeconds.push_back(static_cast<double>(nowNs() - start) / 1e9);
    setupReferenceMs.push_back(reference.batchMs());
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string firstFailure;
  std::uint64_t next = 1;
  const auto account = [&](const RequestOutcome& outcome) {
    ++attempted;
    if (!outcome.ok()) {
      ++failed;
      if (firstFailure.empty()) firstFailure = outcome.failure;
    }
  };

  // Untraced closed loop: the end-to-end numbers (or, in a traced run, the
  // baseline half that the tracing overhead is measured against). Each
  // request is followed by one untimed reference batch.
  const double untracedSeconds = o.trace ? o.seconds / 2.0 : o.seconds;
  std::vector<double> latencyMs;
  std::vector<double> referenceMs;
  std::vector<std::size_t> passedTrials;
  const std::int64_t deadline = nowNs() + static_cast<std::int64_t>(untracedSeconds * 1e9);
  while (nowNs() < deadline) {
    const std::int64_t start = nowNs();
    const RequestOutcome outcome = workload->request(next++, nullptr, 0);
    latencyMs.push_back(static_cast<double>(nowNs() - start) / 1e6);
    referenceMs.push_back(reference.batchMs());
    passedTrials.push_back(outcome.ok() ? outcome.trials : 0);
    account(outcome);
  }

  std::vector<double> tracedMs;
  std::vector<double> tracedReferenceMs;
  if (o.trace) {
    const std::int64_t tracedDeadline =
        nowNs() + static_cast<std::int64_t>((o.seconds - untracedSeconds) * 1e9);
    while (nowNs() < tracedDeadline) {
      const std::uint64_t index = next++;
      trace.setRequest(static_cast<std::uint32_t>(index));
      const std::uint32_t span = trace.open("request", 0);
      const RequestOutcome outcome = workload->request(index, &trace, span);
      trace.close(span);
      const Span& closed = trace.spans()[span - 1];
      tracedMs.push_back(static_cast<double>(closed.end - closed.start) / 1e6);
      tracedReferenceMs.push_back(reference.batchMs());
      account(outcome);
      workload->traceExtras(index, trace, span);
      runProbes(o.seed, index, trace, span);
    }
  }

  const std::string runFailure = workload->finish();
  workload.reset();  // Reaps fleet workers so their peak RSS is counted.

  // Times at the reference host's speed (reference.hpp).
  const std::vector<double> scaledMs = scaled(latencyMs, speedScale(referenceMs));
  std::vector<Metric> metrics;
  if (o.trace) {
    const double overheadMs =
        median(scaled(tracedMs, speedScale(tracedReferenceMs))) - median(scaledMs);
    metrics = perLayerMetrics(trace, threads, overheadMs);
    if (!o.spans.empty()) {
      std::ofstream out(o.spans);
      trace.write(out);
      if (!out) throw std::runtime_error("cannot write spans to " + o.spans);
    }
  } else {
    const auto rate = [&](const std::vector<double>& ms) {
      double trials = 0.0;
      double seconds = 0.0;
      for (std::size_t i = 0; i < ms.size(); ++i) {
        trials += static_cast<double>(passedTrials[i]);
        seconds += ms[i] / 1e3;
      }
      return trials / seconds;
    };
    metrics = {
        {"setup_s", median(scaled(setupSeconds, speedScale(setupReferenceMs))), "s"},
        {"trials_per_s", rate(scaledMs), "1/s"},
        {"request_p50_ms", percentile(scaledMs, 0.50), "ms"},
        {"request_p90_ms", percentile(scaledMs, 0.90), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::cout << "unscaled: setup_s=" << jsonNumber(median(setupSeconds))
              << " trials_per_s=" << jsonNumber(rate(latencyMs))
              << " request_p50_ms=" << jsonNumber(percentile(latencyMs, 0.50))
              << " request_p90_ms=" << jsonNumber(percentile(latencyMs, 0.90))
              << "; reference batch median " << jsonNumber(median(referenceMs)) << " ms, scaled to "
              << jsonNumber(kReferenceMs) << " ms\n";
  }

  std::size_t trials = 0;
  for (const std::size_t t : passedTrials) trials += t;
  std::cout << "requests: attempted=" << attempted << " failed=" << failed
            << " untraced trials=" << trials << "\n";
  if (!firstFailure.empty()) std::cout << "first failed request: " << firstFailure << "\n";
  if (!runFailure.empty()) std::cout << "run check failed: " << runFailure << "\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << jsonNumber(m.value) << " " << m.unit << "\n";
  }
  std::string json = "{\"correct\": ";
  json += runFailure.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + jsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

// ---- Self-test: every output check must be able to fail -------------------

class SelfTest {
 public:
  void expect(bool condition, const std::string& what) {
    std::cout << (condition ? "ok   " : "FAIL ") << what << "\n";
    failures_ += condition ? 0 : 1;
  }
  int result() const {
    std::cout << (failures_ == 0 ? "selftest passed" : "selftest FAILED") << "\n";
    return failures_ == 0 ? 0 : 1;
  }

 private:
  int failures_ = 0;
};

int selftest() {
  SelfTest t;
  const unsigned threads = std::min(nproc(), 4u);
  util::Rng rng(0x5e1f);

  // Wilson certification, on a real battery and on forced counts.
  adv::StressOptions options;
  options.trialsPerMutator = 4;
  options.threads = threads;
  const adv::SoundnessStressReport battery = adv::stressSymDmam(options);
  t.expect(soundnessCertified(battery.totalAccepts(), battery.totalTrials()),
           "soundness: a real sym_dmam battery certifies");
  t.expect(!soundnessCertified(battery.totalTrials() / 2, battery.totalTrials()),
           "soundness: forced accepts of half the mutants fail");
  t.expect(completenessCertified(930, 1000), "completeness: 0.93 over 1000 certifies");
  t.expect(!completenessCertified(600, 1000), "completeness: 0.60 over 1000 fails");

  // GNI completeness on a NO pair (isomorphic graphs) must not certify.
  {
    util::Rng setup(0x6a1);
    const core::GniAmamProtocol protocol(core::GniParams::choose(6, setup));
    const core::GniInstance no = core::gniNoInstance(6, rng);
    sim::TrialConfig config;
    config.masterSeed = 7;
    config.threads = threads;
    const sim::TrialStats stats = sim::estimateAcceptance(
        protocol, no,
        [&](std::size_t) { return std::make_unique<core::HonestGniProver>(protocol.params()); },
        8, config);
    t.expect(!completenessCertified(stats.accepts, stats.trials),
             "completeness: gni_amam on an isomorphic pair fails");
  }

  // Automorphism witnesses.
  const SymInstance inst = makeSymInstance(rng);
  const auto rho = graph::findNontrivialAutomorphism(inst.p1);
  t.expect(rho && isNontrivialAutomorphism(inst.p1, *rho),
           "automorphism: the library witness on a symmetric instance verifies");
  const graph::Graph rigid = graph::randomRigidConnected(8, rng);
  graph::Permutation swap01 = {1, 0, 2, 3, 4, 5, 6, 7};
  t.expect(!isNontrivialAutomorphism(rigid, swap01),
           "automorphism: a transposition on a rigid graph fails");
  graph::Permutation identity = {0, 1, 2, 3, 4, 5, 6, 7};
  t.expect(!isNontrivialAutomorphism(rigid, identity), "automorphism: the identity fails");
  if (rho) {
    graph::Permutation broken = *rho;
    broken[0] = broken[1];
    t.expect(!isNontrivialAutomorphism(inst.p1, broken),
             "automorphism: a corrupted witness (not a permutation) fails");
  }

  // Exhaustive non-isomorphism.
  const core::GniInstance yes = core::gniYesInstance(6, rng);
  t.expect(nonIsomorphicExhaustive(yes.g0, yes.g1), "non-isomorphism: a yes-pair passes");
  t.expect(!nonIsomorphicExhaustive(yes.g0, yes.g0.relabeled(graph::randomPermutation(6, rng))),
           "non-isomorphism: a relabelled copy fails");

  // Honest replies: perfect completeness and the dry-run bit prediction.
  {
    const core::SymDmamProtocol protocol(hash::makeProtocol1Family(kSymN, rng));
    sim::TrialConfig config;
    config.masterSeed = 11;
    config.threads = threads;
    const auto honest = [&](std::size_t) {
      return std::make_unique<core::HonestSymDmamProver>(protocol.family());
    };
    const sim::TrialStats stats =
        sim::estimateAcceptance(protocol, inst.p1, honest, 64, config);
    const std::size_t predicted =
        sim::dryRunSymDmam(inst.p1, sim::SymWidths{util::bitsFor(kSymN),
                                                   protocol.family().seedBits(),
                                                   protocol.family().valueBits()})
            .maxPerNodeBits;
    t.expect(checkHonestReply(stats, 64, predicted, true).empty(),
             "honest reply: sym_dmam on a yes-instance passes");
    t.expect(!checkHonestReply(stats, 64, predicted + 1, true).empty(),
             "honest reply: a perturbed dry-run prediction fails");
    t.expect(!checkHonestReply(stats, 64, stats.maxPerNodeBits - 1, false).empty(),
             "honest reply: bits above the cost-model bound fail");
    const graph::Graph rigid48 = graph::randomRigidConnected(kSymN, rng);
    const sim::TrialStats cheat = sim::estimateAcceptance(
        protocol, rigid48,
        [&](std::size_t i) {
          return std::make_unique<core::CheatingRhoProver>(
              protocol.family(), core::CheatingRhoProver::Strategy::kRandomPermutation, i);
        },
        64, config);
    t.expect(!checkHonestReply(cheat, 64, predicted, true).empty(),
             "honest reply: rejected trials (cheater on a rigid graph) fail");
  }

  // Fleet replies: equal folds, no re-issues, no duplicates.
  {
    const auto cell = sim::workload::makeCell("sym_dmam_p1");
    sim::TrialConfig base;
    base.masterSeed = 5;
    base.threads = threads;
    const sim::TrialStats reference = cell->run(base, 48);
    sim::TrialStats perturbed = reference;
    perturbed.digest ^= 1;
    t.expect(checkFleetReply(reference, reference, 0, 0).empty(),
             "fleet reply: the in-process fold passes");
    t.expect(!checkFleetReply(perturbed, reference, 0, 0).empty(),
             "fleet reply: a perturbed digest fails");
    t.expect(!checkFleetReply(reference, reference, 0, 1).empty(),
             "fleet reply: a duplicate range fails");

    sim::DistributedConfig dist;
    dist.workers = 2;
    dist.threadsPerWorker = 1;
    dist.grain = 8;
    dist.beaconTrials = 4;
    dist.timeoutMillis = 150;
    dist.graceMillis = 400;
    dist.fault.kind = sim::FaultPlan::Kind::kKill;
    dist.fault.worker = 0;
    dist.fault.afterTrials = 5;
    sim::TrialConfig fleetBase = base;
    fleetBase.threads = 1;
    sim::DistributedRunner runner(fleetBase, dist);
    const sim::TrialStats reply = runner.runCell("sym_dmam_p1", 48);
    t.expect(sameFold(reply, reference), "fleet reply: a killed worker still folds exactly");
    t.expect(!checkFleetReply(reply, reference, runner.lastReissues(),
                              runner.lastDuplicates())
                  .empty(),
             "fleet reply: re-issued ranges after a killed worker fail");
  }
  return t.result();
}

}  // namespace
}  // namespace certbench

// A process started by exec inherits its parent's peak RSS on Linux (a
// Python launcher's, say), so the workload runs in a forked child whose
// peak_rss_mb counts only its own pages; the parent waits and passes its
// exit status on.
int runInChild(const certbench::Options& options) {
  std::cout.flush();
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("fork failed");
  if (child == 0) {
    int status = 1;
    try {
      status = certbench::runWorkload(options);
    } catch (const std::exception& e) {
      std::cerr << "certbench: " << e.what() << "\n";
    }
    std::cout.flush();
    std::_Exit(status);
  }
  int status = 0;
  while (waitpid(child, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

int main(int argc, char** argv) {
  try {
    const certbench::Options options = certbench::parse(argc, argv);
    return options.selftest ? certbench::selftest() : runInChild(options);
  } catch (const std::exception& e) {
    std::cerr << "certbench: " << e.what() << "\n";
    return 1;
  }
}
