// Layer probes of the traced run. Each probe times calls into one module's
// public functions on inputs derived from (seed, request), so a per-layer
// number can move without any end-to-end number moving, and the reverse.
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/gni_amam.hpp"
#include "core/gni_general.hpp"
#include "core/sym_input_wire.hpp"
#include "core/wire.hpp"
#include "graph/canonical.hpp"
#include "graph/isomorphism.hpp"
#include "hash/batch_eval.hpp"
#include "net/spanning.hpp"
#include "sym_fixture.hpp"
#include "util/montgomery.hpp"
#include "workloads.hpp"

namespace certbench {

namespace {

using namespace dip;

constexpr std::size_t kMulOps = 20000;
constexpr std::size_t kPowOps = 64;

std::vector<util::BigUInt> challengesFor(std::size_t n, const hash::LinearHashFamily& family,
                                         util::Rng& rng) {
  std::vector<util::BigUInt> challenges;
  challenges.reserve(n);
  for (std::size_t v = 0; v < n; ++v) challenges.push_back(family.randomIndex(rng));
  return challenges;
}

std::size_t roundBits(const core::wire::EncodedRound& round) {
  std::size_t bits = round.broadcastBits();
  for (graph::Vertex v = 0; v < round.unicast.size(); ++v) bits += round.unicastBits(v);
  return bits;
}

}  // namespace

void runProbes(std::uint64_t seed, std::uint64_t request, Trace& trace,
               std::uint32_t parent) {
  util::Rng rng(mixSeed(mixSeed(seed, request), 0x9f0be));

  // util: uncached family construction (the prime searches) for each sym n.
  SymFamilies families;
  {
    ScopedSpan span(&trace, "util.family_build", parent);
    families = buildSymFamilies(rng);
  }
  trace.count("hash.field_bits",
              static_cast<double>(families.p1.prime().bitLength() +
                                  families.p2.prime().bitLength() +
                                  families.dsym.prime().bitLength() +
                                  families.input.prime().bitLength()));

  // util: Montgomery multiply and powMod at the sym P2 modulus.
  const util::MontgomeryContext ctx(families.p2.prime());
  util::MontgomeryContext::Scratch scratch;
  util::MontgomeryValue x = ctx.toValue(rng.nextBigBelow(families.p2.prime()));
  const util::MontgomeryValue y = ctx.toValue(rng.nextBigBelow(families.p2.prime()));
  {
    ScopedSpan span(&trace, "util.mulmod", parent);
    for (std::size_t i = 0; i < kMulOps; ++i) ctx.mulValue(x, y, x, scratch);
  }
  trace.count("util.mulmod_ops", static_cast<double>(kMulOps));
  const util::BigUInt exponent = rng.nextBigBelow(families.p2.prime());
  util::MontgomeryValue power;
  {
    ScopedSpan span(&trace, "util.powmod", parent);
    for (std::size_t i = 0; i < kPowOps; ++i) {
      ctx.powValue(x, exponent, power, scratch);
      x = power;
    }
  }
  trace.count("util.powmod_ops", static_cast<double>(kPowOps));
  if (ctx.fromValue(x) >= families.p2.prime()) {
    throw std::logic_error("Montgomery probe left the field");
  }

  // graph: one request's inputs, their automorphisms and canonical forms.
  SymInstance inst;
  core::GniInstance gniPair{graph::Graph{0}, graph::Graph{0}};
  core::GniInstance gniGeneralPair{graph::Graph{0}, graph::Graph{0}};
  {
    ScopedSpan span(&trace, "graph.instance", parent);
    inst = makeSymInstance(rng);
    gniPair = core::gniYesInstance(6, rng);
    gniGeneralPair = core::gniGeneralYesInstance(6, rng);
  }
  {
    ScopedSpan span(&trace, "graph.automorphism", parent);
    for (const graph::Graph* g : {&inst.p1, &inst.p2, &inst.dsym, &inst.input.input}) {
      if (!graph::findNontrivialAutomorphism(*g)) {
        throw std::logic_error("automorphism probe: yes-instance without automorphism");
      }
    }
  }
  {
    ScopedSpan span(&trace, "graph.canonical", parent);
    for (const graph::Graph* g : {&gniPair.g0, &gniPair.g1, &gniGeneralPair.g0,
                                  &gniGeneralPair.g1}) {
      if (graph::canonicalForm(*g).empty()) {
        throw std::logic_error("canonical probe: empty canonical form");
      }
    }
  }

  // net: the spanning tree every Sym protocol's prover builds.
  {
    ScopedSpan span(&trace, "net.bfs", parent);
    if (net::buildBfsTree(inst.p1, 0).parent.size() != kSymN) {
      throw std::logic_error("bfs probe: wrong tree size");
    }
  }

  // hash: batch evaluation of all n adjacency rows under a fresh index.
  {
    std::vector<std::uint64_t> rowIndices(kSymN);
    std::vector<util::DynBitset> rows;
    rows.reserve(kSymN);
    for (graph::Vertex v = 0; v < kSymN; ++v) {
      rowIndices[v] = v;
      rows.push_back(inst.p1.row(v));
    }
    hash::BatchLinearHashEvaluator evaluator;
    evaluator.rebind(families.p1, families.p1.randomIndex(rng));
    std::vector<util::BigUInt> out;
    ScopedSpan span(&trace, "hash.matrix_rows", parent);
    evaluator.hashMatrixRows(rowIndices, rows, kSymN, out);
  }

  // core: wire codecs on one honest round set per Sym-family protocol.
  const graph::DSymLayout layout = symDsymLayout();
  const std::size_t nd = layout.numVertices;
  core::HonestSymDmamProver p1(families.p1);
  const core::SymDmamFirstMessage p1First = p1.firstMessage(inst.p1);
  const core::SymDmamSecondMessage p1Second =
      p1.secondMessage(inst.p1, p1First, challengesFor(kSymN, families.p1, rng));
  const core::SymDamMessage p2Message = core::HonestSymDamProver(families.p2)
      .respond(inst.p2, challengesFor(kSymN, families.p2, rng));
  const core::DSymMessage dsymMessage = core::HonestDSymProver(layout, families.dsym)
      .respond(inst.dsym, challengesFor(nd, families.dsym, rng));
  core::HonestSymInputProver input(families.input);
  const core::SymInputFirstMessage inFirst = input.firstMessage(inst.input);
  const core::SymInputSecondMessage inSecond = input.secondMessage(
      inst.input, inFirst, challengesFor(kInputN, families.input, rng));

  std::vector<core::wire::EncodedRound> rounds;
  {
    ScopedSpan span(&trace, "core.encode", parent);
    rounds.push_back(core::wire::encodeSymDmamFirst(p1First, kSymN));
    rounds.push_back(core::wire::encodeSymDmamSecond(p1Second, kSymN, families.p1));
    rounds.push_back(core::wire::encodeSymDam(p2Message, kSymN, families.p2));
    rounds.push_back(core::wire::encodeDSym(dsymMessage, nd, families.dsym));
    rounds.push_back(core::wire::encodeSymInputFirst(inFirst, inst.input));
    rounds.push_back(core::wire::encodeSymInputSecond(inSecond, kInputN, families.input));
  }
  std::size_t bits = 0;
  for (const core::wire::EncodedRound& round : rounds) bits += roundBits(round);
  trace.count("core.wire_bits", static_cast<double>(bits));
  bool roundTrips = true;
  {
    ScopedSpan span(&trace, "core.decode", parent);
    roundTrips = core::wire::decodeSymDmamFirst(rounds[0], kSymN).rho == p1First.rho &&
                 core::wire::decodeSymDmamSecond(rounds[1], kSymN, families.p1).a ==
                     p1Second.a &&
                 core::wire::decodeSymDam(rounds[2], kSymN, families.p2).a == p2Message.a &&
                 core::wire::decodeDSym(rounds[3], nd, families.dsym).a == dsymMessage.a &&
                 core::wire::decodeSymInputFirst(rounds[4], inst.input).rho == inFirst.rho &&
                 core::wire::decodeSymInputSecond(rounds[5], kInputN, families.input).a ==
                     inSecond.a;
  }
  if (!roundTrips) throw std::logic_error("wire probe: decode(encode(m)) != m");
}

}  // namespace certbench
