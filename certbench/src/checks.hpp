// Output checks of the certification benchmark.
//
// Each check is computed apart from the code under measurement (its own
// Wilson interval, its own edge-by-edge automorphism test, an exhaustive
// isomorphism search) or tests a property every correct run must have.
// `certbench --selftest` shows that each one can fail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/trial.hpp"

namespace certbench {

struct Interval {
  double low = 0.0;
  double high = 1.0;
};

// Wilson score interval at 95% confidence; [0, 1] when trials == 0.
Interval wilson95(std::size_t successes, std::size_t trials);

// Completeness certified: the Wilson lower bound reaches 2/3.
bool completenessCertified(std::size_t accepts, std::size_t trials);

// Soundness certified: the Wilson upper bound stays at or below 1/3.
bool soundnessCertified(std::size_t accepts, std::size_t trials);

// perm is a permutation of g's vertices, moves at least one vertex, and maps
// every edge of g onto an edge of g (checked edge by edge).
bool isNontrivialAutomorphism(const dip::graph::Graph& g,
                              const dip::graph::Permutation& perm);

// No permutation of g0's vertices maps g0 onto g1 (all n! tried).
bool nonIsomorphicExhaustive(const dip::graph::Graph& g0, const dip::graph::Graph& g1);

// Perfect completeness: `trials` honest trials ran and every one accepted.
bool allAccepted(const dip::sim::TrialStats& stats, std::size_t trials);

// The deterministic fields of two folds agree (accepts, trials, max bits
// per node, digest).
bool sameFold(const dip::sim::TrialStats& a, const dip::sim::TrialStats& b);

// Request-level checks: empty when the reply passes, else why it failed.

// An honest completeness batch: every trial ran and accepted, and the
// largest per-node transcript equals the structural dry-run prediction
// (exactBits) or stays within the protocol's cost-model bound.
std::string checkHonestReply(const dip::sim::TrialStats& stats, std::size_t trials,
                             std::size_t expectedBits, bool exactBits);

// A fleet reply: equal to the in-process fold of the same cell and trial
// count, with no re-issued and no duplicate ranges.
std::string checkFleetReply(const dip::sim::TrialStats& reply,
                            const dip::sim::TrialStats& reference,
                            std::uint64_t reissues, std::uint64_t duplicates);

}  // namespace certbench
