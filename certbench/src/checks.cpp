#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

namespace certbench {

Interval wilson95(std::size_t successes, std::size_t trials) {
  if (trials == 0) return {};
  const double z = 1.959963984540054;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double denom = 1.0 + z * z / n;
  const double center = (p + z * z / (2.0 * n)) / denom;
  const double half = z * std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

bool completenessCertified(std::size_t accepts, std::size_t trials) {
  return trials > 0 && wilson95(accepts, trials).low >= 2.0 / 3.0;
}

bool soundnessCertified(std::size_t accepts, std::size_t trials) {
  return trials > 0 && wilson95(accepts, trials).high <= 1.0 / 3.0;
}

bool isNontrivialAutomorphism(const dip::graph::Graph& g,
                              const dip::graph::Permutation& perm) {
  const std::size_t n = g.numVertices();
  if (perm.size() != n) return false;
  std::vector<bool> hit(n, false);
  bool moves = false;
  for (std::size_t v = 0; v < n; ++v) {
    if (perm[v] >= n || hit[perm[v]]) return false;
    hit[perm[v]] = true;
    moves = moves || perm[v] != v;
  }
  if (!moves) return false;
  bool edgesMapped = true;
  g.forEachEdge([&](dip::graph::Vertex u, dip::graph::Vertex v) {
    edgesMapped = edgesMapped && g.hasEdge(perm[u], perm[v]);
  });
  return edgesMapped;
}

bool nonIsomorphicExhaustive(const dip::graph::Graph& g0, const dip::graph::Graph& g1) {
  const std::size_t n = g0.numVertices();
  if (g1.numVertices() != n || g0.numEdges() != g1.numEdges()) return true;
  dip::graph::Permutation perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  do {
    bool maps = true;
    g0.forEachEdge([&](dip::graph::Vertex u, dip::graph::Vertex v) {
      maps = maps && g1.hasEdge(perm[u], perm[v]);
    });
    if (maps) return false;  // Equal edge counts: an injective edge map is onto.
  } while (std::next_permutation(perm.begin(), perm.end()));
  return true;
}

bool allAccepted(const dip::sim::TrialStats& stats, std::size_t trials) {
  return trials > 0 && stats.trials == trials && stats.accepts == trials;
}

bool sameFold(const dip::sim::TrialStats& a, const dip::sim::TrialStats& b) {
  return a.accepts == b.accepts && a.trials == b.trials &&
         a.maxPerNodeBits == b.maxPerNodeBits && a.digest == b.digest;
}

std::string checkHonestReply(const dip::sim::TrialStats& stats, std::size_t trials,
                             std::size_t expectedBits, bool exactBits) {
  if (!allAccepted(stats, trials)) {
    return std::to_string(stats.accepts) + " of " + std::to_string(stats.trials) +
           " honest trials accepted, expected " + std::to_string(trials);
  }
  const bool bitsOk = exactBits ? stats.maxPerNodeBits == expectedBits
                                : stats.maxPerNodeBits > 0 && stats.maxPerNodeBits <= expectedBits;
  if (!bitsOk) {
    return "max bits per node " + std::to_string(stats.maxPerNodeBits) +
           (exactBits ? " != dry-run " : " > cost model ") + std::to_string(expectedBits);
  }
  return {};
}

std::string checkFleetReply(const dip::sim::TrialStats& reply,
                            const dip::sim::TrialStats& reference,
                            std::uint64_t reissues, std::uint64_t duplicates) {
  if (!sameFold(reply, reference)) return "fleet fold differs from the in-process fold";
  if (reissues != 0 || duplicates != 0) {
    return std::to_string(reissues) + " re-issued and " + std::to_string(duplicates) +
           " duplicate ranges";
  }
  return {};
}

}  // namespace certbench
