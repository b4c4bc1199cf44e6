#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adv/stress.hpp"
#include "checks.hpp"
#include "core/dsym_dam.hpp"
#include "core/gni_amam.hpp"
#include "core/gni_general.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "core/sym_input.hpp"
#include "graph/isomorphism.hpp"
#include "sim/acceptance.hpp"
#include "sim/distributed.hpp"
#include "sim/dryrun.hpp"
#include "sim/workload.hpp"
#include "sym_fixture.hpp"
#include "util/bitio.hpp"

namespace certbench {

std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b) {
  return dip::sim::digestCombine(a, b);
}

namespace {

using namespace dip;

constexpr std::array<WorkloadInfo, 4> kWorkloads{{
    {"sym", 40, ReferenceShape::kShared},
    {"gni", 15, ReferenceShape::kShared},
    {"mutants", 40, ReferenceShape::kRounds},
    {"fleet", 20, ReferenceShape::kHandoff},
}};

sim::TrialConfig trialConfig(std::uint64_t masterSeed, unsigned threads) {
  sim::TrialConfig config;
  config.masterSeed = masterSeed;
  config.threads = threads;
  return config;
}

// ---- Prover decorators: time every prover call of a traced trial ----------

// Merlin-Arthur-Merlin provers (Protocol 1, Sym with input).
template <class Base, class Instance, class First, class Second>
class TimedMamProver final : public Base {
 public:
  TimedMamProver(std::unique_ptr<Base> inner, TrialSlot& slot)
      : inner_(std::move(inner)), slot_(slot) {}
  First firstMessage(const Instance& x) override {
    return timedProverCall(slot_, [&] { return inner_->firstMessage(x); });
  }
  Second secondMessage(const Instance& x, const First& first,
                       const std::vector<util::BigUInt>& challenges) override {
    return timedProverCall(slot_,
                           [&] { return inner_->secondMessage(x, first, challenges); });
  }

 private:
  std::unique_ptr<Base> inner_;
  TrialSlot& slot_;
};

// Arthur-Merlin provers (Protocol 2, DSym).
template <class Base, class Message>
class TimedAmProver final : public Base {
 public:
  TimedAmProver(std::unique_ptr<Base> inner, TrialSlot& slot)
      : inner_(std::move(inner)), slot_(slot) {}
  Message respond(const graph::Graph& g,
                  const std::vector<util::BigUInt>& challenges) override {
    return timedProverCall(slot_, [&] { return inner_->respond(g, challenges); });
  }

 private:
  std::unique_ptr<Base> inner_;
  TrialSlot& slot_;
};

// Goldwasser-Sipser provers (both GNI protocols).
template <class Base, class First, class Second>
class TimedGniProver final : public Base {
 public:
  using Challenges = std::vector<std::vector<core::GniChallenge>>;
  TimedGniProver(std::unique_ptr<Base> inner, TrialSlot& slot)
      : inner_(std::move(inner)), slot_(slot) {}
  First firstMessage(const core::GniInstance& instance,
                     const Challenges& challenges) override {
    return timedProverCall(slot_,
                           [&] { return inner_->firstMessage(instance, challenges); });
  }
  Second secondMessage(const core::GniInstance& instance, const Challenges& challenges,
                       const First& first,
                       const std::vector<util::BigUInt>& checkChallenges) override {
    return timedProverCall(slot_, [&] {
      return inner_->secondMessage(instance, challenges, first, checkChallenges);
    });
  }

 private:
  std::unique_ptr<Base> inner_;
  TrialSlot& slot_;
};

using TrialBody = std::function<sim::TrialOutcome(sim::TrialContext&)>;

// The library's honest-trial body (sim::acceptanceBody) for one protocol on
// one instance. With slots (traced runs) the prover is wrapped in `Timed`,
// which stamps its calls into the trial's slot.
template <class Timed, class Protocol, class Instance, class MakeProver>
TrialBody honestBody(const Protocol& protocol, const Instance& instance,
                     MakeProver makeProver, std::vector<TrialSlot>* slots) {
  if (slots == nullptr) {
    return sim::acceptanceBody(protocol, instance,
                               [makeProver](std::size_t) { return makeProver(); });
  }
  return sim::acceptanceBody(protocol, instance, [makeProver, slots](std::size_t index) {
    return std::make_unique<Timed>(makeProver(), (*slots)[index]);
  });
}

// One TrialRunner batch of `trials` trials; traced runs add one "sim.run"
// span around it and "sim.trial" / "core.prover" spans inside it.
std::vector<sim::TrialOutcome> runBatch(std::size_t trials, const TrialBody& body,
                                        const sim::TrialConfig& config, Trace* trace,
                                        std::uint32_t parent,
                                        std::vector<TrialSlot>& slots) {
  const sim::TrialRunner runner(config);
  std::vector<sim::TrialOutcome> outcomes;
  if (trace == nullptr) {
    runner.run(trials, body, &outcomes);
    return outcomes;
  }
  const std::uint32_t run = trace->open("sim.run", parent);
  runner.run(
      trials,
      [&](sim::TrialContext& ctx) {
        TrialSlot& slot = slots[ctx.index];
        slot.start = nowNs();
        const sim::TrialOutcome outcome = body(ctx);
        slot.end = nowNs();
        return outcome;
      },
      &outcomes);
  trace->close(run);
  appendTrialSpans(*trace, run, slots);
  return outcomes;
}

// `trials` honest trials of one protocol on one instance, folded.
template <class Timed, class Protocol, class Instance, class MakeProver>
sim::TrialStats runTrials(const Protocol& protocol, const Instance& instance,
                          MakeProver makeProver, std::size_t trials,
                          const sim::TrialConfig& config, Trace* trace,
                          std::uint32_t parent) {
  std::vector<TrialSlot> slots(trace ? trials : 0);
  const TrialBody body =
      honestBody<Timed>(protocol, instance, makeProver, trace ? &slots : nullptr);
  return sim::foldOutcomes(runBatch(trials, body, config, trace, parent, slots));
}

// Builds `count` inputs on the trial engine (dynamic load balancing over
// the run's threads); build(index, rng) returns "" or a failed input check.
template <class Build>
void buildPool(std::size_t count, std::uint64_t seed, unsigned threads, Build&& build) {
  std::vector<std::string> failures(count);
  sim::TrialRunner(trialConfig(seed, threads))
      .run(count, [&](sim::TrialContext& ctx) {
        failures[ctx.index] = build(ctx.index, ctx.rng);
        return sim::TrialOutcome{};
      });
  for (const std::string& failure : failures) {
    if (!failure.empty()) throw std::runtime_error("set-up check failed: " + failure);
  }
}

void warmUp(Workload& workload) {
  const RequestOutcome outcome = workload.request(0, nullptr, 0);
  if (!outcome.ok()) {
    throw std::runtime_error("warm-up request failed: " + outcome.failure);
  }
}

sim::SymWidths widthsOf(std::size_t n, const hash::LinearHashFamily& family) {
  return {util::bitsFor(n), family.seedBits(), family.valueBits()};
}

// ---- sym: completeness of the four Sym-family protocols -------------------

class SymWorkload final : public Workload {
 public:
  static constexpr std::size_t kPool = 32;
  static constexpr std::size_t kTrials = 400;  // Per protocol per request.

  SymWorkload(std::uint64_t seed, unsigned threads) : seed_(seed), threads_(threads) {}

  void setup(Trace* trace) override {
    util::Rng rng(mixSeed(seed_, 0x5e7));
    {
      ScopedSpan span(trace, "util.family_build", 0);
      SymFamilies families = buildSymFamilies(rng);
      p1_ = std::make_unique<core::SymDmamProtocol>(std::move(families.p1));
      p2_ = std::make_unique<core::SymDamProtocol>(std::move(families.p2));
      dsym_ = std::make_unique<core::DSymDamProtocol>(layout_, std::move(families.dsym));
      input_ = std::make_unique<core::SymInputProtocol>(std::move(families.input));
    }
    pool_.assign(kPool, Entry{});
    {
      ScopedSpan span(trace, "graph.instance", 0);
      buildPool(kPool, mixSeed(seed_, 0x9001), threads_, [&](std::size_t i, util::Rng& poolRng) {
        return buildEntry(pool_[i], poolRng);
      });
    }
    warmUp(*this);
  }

  RequestOutcome request(std::uint64_t index, Trace* trace,
                         std::uint32_t parent) override {
    const Entry& e = pool_[index % kPool];
    const std::uint64_t requestSeed = mixSeed(seed_, index);
    RequestOutcome out;
    out.trials = 4 * kTrials;

    using TimedP1 = TimedMamProver<core::SymDmamProver, graph::Graph,
                                   core::SymDmamFirstMessage, core::SymDmamSecondMessage>;
    const sim::TrialStats s1 = runTrials<TimedP1>(
        *p1_, e.inst.p1,
        [&]() -> std::unique_ptr<core::SymDmamProver> {
          return std::make_unique<core::HonestSymDmamProver>(p1_->family());
        },
        kTrials, trialConfig(mixSeed(requestSeed, 1), threads_), trace, parent);
    out.fail("sym_dmam", checkHonestReply(s1, kTrials, e.p1Bits, true));

    using TimedP2 = TimedAmProver<core::SymDamProver, core::SymDamMessage>;
    const sim::TrialStats s2 = runTrials<TimedP2>(
        *p2_, e.inst.p2,
        [&]() -> std::unique_ptr<core::SymDamProver> {
          return std::make_unique<core::HonestSymDamProver>(p2_->family());
        },
        kTrials, trialConfig(mixSeed(requestSeed, 2), threads_), trace, parent);
    out.fail("sym_dam", checkHonestReply(s2, kTrials, e.p2Bits, true));

    using TimedDsym = TimedAmProver<core::DSymProver, core::DSymMessage>;
    const sim::TrialStats s3 = runTrials<TimedDsym>(
        *dsym_, e.inst.dsym,
        [&]() -> std::unique_ptr<core::DSymProver> {
          return std::make_unique<core::HonestDSymProver>(layout_, dsym_->family());
        },
        kTrials, trialConfig(mixSeed(requestSeed, 3), threads_), trace, parent);
    out.fail("dsym_dam", checkHonestReply(s3, kTrials, e.dsymBits, true));

    using TimedInput =
        TimedMamProver<core::SymInputProver, core::SymInputInstance,
                       core::SymInputFirstMessage, core::SymInputSecondMessage>;
    const sim::TrialStats s4 = runTrials<TimedInput>(
        *input_, e.inst.input,
        [&]() -> std::unique_ptr<core::SymInputProver> {
          return std::make_unique<core::HonestSymInputProver>(input_->family());
        },
        kTrials, trialConfig(mixSeed(requestSeed, 4), threads_), trace, parent);
    out.fail("sym_input", checkHonestReply(s4, kTrials, e.inputBitsBound, false));

    if (trace) {
      trace->count("core.max_bits_per_node",
                   static_cast<double>(std::max({s1.maxPerNodeBits, s2.maxPerNodeBits,
                                                 s3.maxPerNodeBits, s4.maxPerNodeBits})));
    }
    return out;
  }

 private:
  struct Entry {
    SymInstance inst;
    std::size_t p1Bits = 0;  // Dry-run predictions of the max bits per node.
    std::size_t p2Bits = 0;
    std::size_t dsymBits = 0;
    std::size_t inputBitsBound = 0;  // Cost-model bound (no dry run exists).
  };

  // Yes-ness of every instance is confirmed by a nontrivial automorphism
  // checked edge by edge; the bit predictions come from the structural
  // dry run of the same graph.
  std::string buildEntry(Entry& e, util::Rng& rng) const {
    e.inst = makeSymInstance(rng);
    const auto witnessed = [](const graph::Graph& g) {
      const auto rho = graph::findNontrivialAutomorphism(g);
      return rho.has_value() && isNontrivialAutomorphism(g, *rho);
    };
    if (!witnessed(e.inst.p1) || !witnessed(e.inst.p2) || !witnessed(e.inst.input.input)) {
      return "sym instance without a verified automorphism";
    }
    if (!isNontrivialAutomorphism(e.inst.dsym, graph::dsymSigma(layout_))) {
      return "dsym instance without a verified automorphism";
    }
    e.p1Bits = sim::dryRunSymDmam(e.inst.p1, widthsOf(kSymN, p1_->family())).maxPerNodeBits;
    e.p2Bits = sim::dryRunSymDam(e.inst.p2, widthsOf(kSymN, p2_->family())).maxPerNodeBits;
    e.dsymBits = sim::dryRunDsymDam(e.inst.dsym,
                                    widthsOf(layout_.numVertices, dsym_->family()))
                     .maxPerNodeBits;
    std::size_t maxDegree = 0;
    for (graph::Vertex v = 0; v < kInputN; ++v) {
      maxDegree = std::max(maxDegree, e.inst.input.input.degree(v));
    }
    e.inputBitsBound = core::SymInputProtocol::costModel(kInputN, maxDegree).totalPerNode();
    return {};
  }

  std::uint64_t seed_;
  unsigned threads_;
  graph::DSymLayout layout_ = symDsymLayout();
  std::unique_ptr<core::SymDmamProtocol> p1_;
  std::unique_ptr<core::SymDamProtocol> p2_;
  std::unique_ptr<core::DSymDamProtocol> dsym_;
  std::unique_ptr<core::SymInputProtocol> input_;
  std::vector<Entry> pool_;
};

// ---- gni: completeness of both Goldwasser-Sipser protocols ----------------

class GniWorkload final : public Workload {
 public:
  static constexpr std::size_t kN = 6;
  static constexpr std::size_t kPool = 32;
  static constexpr std::size_t kAmamTrials = 8;
  static constexpr std::size_t kGeneralTrials = 4;

  GniWorkload(std::uint64_t seed, unsigned threads) : seed_(seed), threads_(threads) {}

  void setup(Trace* trace) override {
    util::Rng rng(mixSeed(seed_, 0x6a1));
    amam_ = std::make_unique<core::GniAmamProtocol>(core::GniParams::choose(kN, rng));
    general_ = std::make_unique<core::GniGeneralProtocol>(
        core::GniGeneralParams::choose(kN, rng));
    pool_.assign(kPool, Entry{});
    {
      ScopedSpan span(trace, "graph.instance", 0);
      buildPool(kPool, mixSeed(seed_, 0x9002), threads_,
                [&](std::size_t i, util::Rng& poolRng) -> std::string {
                  Entry& e = pool_[i];
                  e.amam = core::gniYesInstance(kN, poolRng);
                  e.general = core::gniGeneralYesInstance(kN, poolRng);
                  if (!nonIsomorphicExhaustive(e.amam.g0, e.amam.g1) ||
                      !nonIsomorphicExhaustive(e.general.g0, e.general.g1)) {
                    return "gni yes-pair is isomorphic";
                  }
                  return {};
                });
    }
    warmUp(*this);
  }

  RequestOutcome request(std::uint64_t index, Trace* trace,
                         std::uint32_t parent) override {
    const Entry& e = pool_[index % kPool];
    const std::uint64_t requestSeed = mixSeed(seed_, index);
    RequestOutcome out;
    out.trials = kAmamTrials + kGeneralTrials;

    // One batch for both protocols: a GNI trial costs 30-60 ms, so two
    // separate batches of a few trials would each wait for their slowest
    // vCPU. Trials [0, kGeneralTrials) run gni_general, the longer ones,
    // so they are claimed first; the rest run gni_amam.
    std::vector<TrialSlot> slots(trace ? out.trials : 0);
    std::vector<TrialSlot>* slotsOrNull = trace ? &slots : nullptr;
    using TimedGeneral = TimedGniProver<core::GniGeneralProver, core::GniGenFirstMessage,
                                        core::GniGenSecondMessage>;
    const TrialBody general = honestBody<TimedGeneral>(
        *general_, e.general,
        [this]() -> std::unique_ptr<core::GniGeneralProver> {
          return std::make_unique<core::HonestGniGeneralProver>(general_->params());
        },
        slotsOrNull);
    using TimedAmam =
        TimedGniProver<core::GniProver, core::GniFirstMessage, core::GniSecondMessage>;
    const TrialBody amam = honestBody<TimedAmam>(
        *amam_, e.amam,
        [this]() -> std::unique_ptr<core::GniProver> {
          return std::make_unique<core::HonestGniProver>(amam_->params());
        },
        slotsOrNull);
    const std::vector<sim::TrialOutcome> outcomes = runBatch(
        out.trials,
        [&](sim::TrialContext& ctx) {
          return ctx.index < kGeneralTrials ? general(ctx) : amam(ctx);
        },
        trialConfig(requestSeed, threads_), trace, parent, slots);
    const auto split = outcomes.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(kGeneralTrials, outcomes.size()));
    const sim::TrialStats g = sim::foldOutcomes({outcomes.begin(), split});
    const sim::TrialStats a = sim::foldOutcomes({split, outcomes.end()});

    if (a.trials != kAmamTrials || g.trials != kGeneralTrials) {
      out.fail("gni", "trial count differs from the request");
    } else {
      accepts_ += a.accepts + g.accepts;
      trials_ += a.trials + g.trials;
    }
    if (trace) {
      trace->count("core.max_bits_per_node",
                   static_cast<double>(std::max(a.maxPerNodeBits, g.maxPerNodeBits)));
    }
    return out;
  }

  // GNI completeness is not perfect, so it is certified over the whole run.
  std::string finish() const override {
    if (completenessCertified(accepts_, trials_)) return {};
    return "gni acceptance " + std::to_string(accepts_) + "/" + std::to_string(trials_) +
           " has Wilson lower bound " + std::to_string(wilson95(accepts_, trials_).low) +
           " < 2/3";
  }

 private:
  struct Entry {
    core::GniInstance amam{graph::Graph{0}, graph::Graph{0}};
    core::GniInstance general{graph::Graph{0}, graph::Graph{0}};
  };

  std::uint64_t seed_;
  unsigned threads_;
  std::unique_ptr<core::GniAmamProtocol> amam_;
  std::unique_ptr<core::GniGeneralProtocol> general_;
  std::vector<Entry> pool_;
  std::size_t accepts_ = 0;
  std::size_t trials_ = 0;
};

// ---- mutants: the Sym-family soundness batteries --------------------------

std::int64_t processCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(t.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

class MutantsWorkload final : public Workload {
 public:
  static constexpr std::size_t kTrialsPerMutator = 128;

  MutantsWorkload(std::uint64_t seed, unsigned threads) : seed_(seed), threads_(threads) {}

  // The batteries build their own instances from the master seed; set-up
  // is the warm-up request (it fills the process-wide prime caches).
  void setup(Trace*) override { warmUp(*this); }

  RequestOutcome request(std::uint64_t index, Trace* trace,
                         std::uint32_t parent) override {
    struct Battery {
      const char* span;
      adv::StressFn run;
    };
    static constexpr std::array<Battery, 4> kBatteries{{
        {"adv.sym_dmam_battery", &adv::stressSymDmam},
        {"adv.sym_dam_battery", &adv::stressSymDam},
        {"adv.dsym_dam_battery", &adv::stressDSym},
        {"adv.sym_input_battery", &adv::stressSymInput},
    }};
    adv::StressOptions options;
    options.trialsPerMutator = kTrialsPerMutator;
    options.masterSeed = mixSeed(seed_, index);
    options.threads = threads_;

    RequestOutcome out;
    std::size_t accepts = 0;
    std::size_t decodeRejected = 0;
    std::size_t batches = 0;
    std::size_t maxBits = 0;
    const std::int64_t cpuStart = trace ? processCpuNs() : 0;
    for (const Battery& battery : kBatteries) {
      adv::SoundnessStressReport report;
      {
        ScopedSpan span(trace, battery.span, parent);
        report = battery.run(options);
      }
      const std::size_t trials = report.totalTrials();
      if (trials != report.cells.size() * kTrialsPerMutator || trials == 0) {
        out.fail(report.protocol, "battery trial count differs from the request");
      } else if (!soundnessCertified(report.totalAccepts(), trials)) {
        out.fail(report.protocol,
                 std::to_string(report.totalAccepts()) + "/" + std::to_string(trials) +
                     " mutants accepted, Wilson upper bound above 1/3");
      }
      out.trials += trials;
      accepts += report.totalAccepts();
      decodeRejected += report.totalDecodeRejected();
      batches += report.cells.size();
      for (const adv::MutatorCell& cell : report.cells) {
        maxBits = std::max(maxBits, cell.stats.maxPerNodeBits);
      }
    }
    if (trace) {
      trace->count("sim.trial_busy_ns", static_cast<double>(processCpuNs() - cpuStart));
      trace->count("sim.run_range_calls", static_cast<double>(batches));
      trace->count("adv.mutant_trials", static_cast<double>(out.trials));
      trace->count("adv.decode_rejected", static_cast<double>(decodeRejected));
      trace->count("adv.accepts", static_cast<double>(accepts));
      trace->count("core.max_bits_per_node", static_cast<double>(maxBits));
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  unsigned threads_;
};

// ---- fleet: one dipd session serving the four fast registry cells ---------

class FleetWorkload final : public Workload {
 public:
  static constexpr std::array<std::string_view, 4> kCells{
      "sym_dmam_p1", "sym_dam_p2", "dsym_dam", "sym_input"};

  FleetWorkload(std::uint64_t seed, unsigned threads)
      : base_(trialConfig(mixSeed(seed, 0xf1ee7), threads)) {
    dist_.workers = threads > 1 ? threads - 1 : 1;
    dist_.threadsPerWorker = 1;
  }

  // In-process reference folds first (no worker exists yet, so the run
  // stays within its thread budget), then the fork and the first replies.
  void setup(Trace* trace) override {
    for (std::size_t k = 0; k < kCells.size(); ++k) {
      cells_[k] = sim::workload::makeCell(kCells[k]);
      reference_[k] = cells_[k]->run(base_);
    }
    {
      ScopedSpan span(trace, "sim.fleet_spawn", 0);
      runner_ = std::make_unique<sim::DistributedRunner>(trialConfig(base_.masterSeed, 1),
                                                         dist_);
      const sim::TrialStats first = runner_->runCell(kCells[0]);
      const std::string why = checkFleetReply(first, reference_[0], runner_->lastReissues(),
                                              runner_->lastDuplicates());
      if (!why.empty()) throw std::runtime_error("first fleet reply failed: " + why);
    }
    warmUp(*this);
  }

  RequestOutcome request(std::uint64_t, Trace* trace, std::uint32_t parent) override {
    RequestOutcome out;
    std::uint64_t reissues = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t ranges = 0;
    {
      ScopedSpan span(trace, "rpc.request", parent);
      for (std::size_t k = 0; k < kCells.size(); ++k) {
        const sim::TrialStats reply = runner_->runCell(kCells[k]);
        out.trials += reply.trials;
        out.fail(kCells[k], checkFleetReply(reply, reference_[k], runner_->lastReissues(),
                                            runner_->lastDuplicates()));
        reissues += runner_->lastReissues();
        duplicates += runner_->lastDuplicates();
        ranges += (cells_[k]->info().trials + dist_.grain - 1) / dist_.grain +
                  runner_->lastReissues();
      }
    }
    if (trace) {
      trace->count("sim.fleet_reissues", static_cast<double>(reissues));
      trace->count("sim.fleet_duplicates", static_cast<double>(duplicates));
      trace->count("sim.fleet_live_workers", static_cast<double>(runner_->liveWorkers()));
      trace->count("rpc.ranges", static_cast<double>(ranges));
      std::size_t maxBits = 0;
      for (const sim::TrialStats& stats : reference_) {
        maxBits = std::max(maxBits, stats.maxPerNodeBits);
      }
      trace->count("core.max_bits_per_node", static_cast<double>(maxBits));
    }
    return out;
  }

  // The same cells and trial counts in-process at the fleet's total thread
  // count; rpc.overhead_ms is the fleet request minus this.
  void traceExtras(std::uint64_t, Trace& trace, std::uint32_t parent) override {
    ScopedSpan span(&trace, "rpc.inprocess", parent);
    for (const auto& cell : cells_) {
      cell->run(trialConfig(base_.masterSeed, dist_.workers * dist_.threadsPerWorker));
    }
  }

 private:
  sim::TrialConfig base_;
  sim::DistributedConfig dist_;
  std::array<std::unique_ptr<sim::workload::Cell>, kCells.size()> cells_;
  std::array<sim::TrialStats, kCells.size()> reference_;
  std::unique_ptr<sim::DistributedRunner> runner_;
};

}  // namespace

const WorkloadInfo* findWorkload(std::string_view name) {
  for (const WorkloadInfo& info : kWorkloads) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

std::unique_ptr<Workload> makeWorkload(std::string_view name, std::uint64_t seed,
                                       unsigned threads) {
  if (name == "sym") return std::make_unique<SymWorkload>(seed, threads);
  if (name == "gni") return std::make_unique<GniWorkload>(seed, threads);
  if (name == "mutants") return std::make_unique<MutantsWorkload>(seed, threads);
  if (name == "fleet") return std::make_unique<FleetWorkload>(seed, threads);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace certbench
