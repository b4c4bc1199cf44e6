// Seeded inputs of the `sym` workload, shared with the layer probes.
#pragma once

#include <cstddef>

#include "core/sym_input.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "hash/linear_hash.hpp"
#include "util/rng.hpp"

namespace certbench {

// P1 and P2 run on n = 48: P2's prime p in [10 n^(n+2), 100 n^(n+2)] then
// has about 285 bits, five 64-bit limbs.
inline constexpr std::size_t kSymN = 48;
inline constexpr std::size_t kDsymSide = 12;  // N = 2 * 12 + 2 + 1 = 27 nodes.
inline constexpr std::size_t kInputN = 16;

inline dip::graph::DSymLayout symDsymLayout() {
  return dip::graph::dsymLayout(kDsymSide, 1);
}

struct SymFamilies {
  dip::hash::LinearHashFamily p1;
  dip::hash::LinearHashFamily p2;
  dip::hash::LinearHashFamily dsym;
  dip::hash::LinearHashFamily input;
};

// Uncached construction: every call runs the prime searches.
inline SymFamilies buildSymFamilies(dip::util::Rng& rng) {
  return {dip::hash::makeProtocol1Family(kSymN, rng),
          dip::hash::makeProtocol2Family(kSymN, rng),
          dip::hash::makeProtocol1Family(symDsymLayout().numVertices, rng),
          dip::hash::makeProtocol1Family(kInputN, rng)};
}

// One yes-instance per protocol.
struct SymInstance {
  dip::graph::Graph p1{0};
  dip::graph::Graph p2{0};
  dip::graph::Graph dsym{0};
  dip::core::SymInputInstance input{dip::graph::Graph{0}, dip::graph::Graph{0}};
};

inline SymInstance makeSymInstance(dip::util::Rng& rng) {
  SymInstance inst;
  inst.p1 = dip::graph::randomSymmetricConnected(kSymN, rng);
  inst.p2 = dip::graph::randomSymmetricConnected(kSymN, rng);
  inst.dsym = dip::graph::dsymInstance(dip::graph::randomRigidConnected(kDsymSide, rng), 1);
  inst.input.network = dip::graph::randomConnected(kInputN, kInputN / 2, rng);
  inst.input.input = dip::graph::randomSymmetricConnected(kInputN, rng);
  return inst;
}

}  // namespace certbench
