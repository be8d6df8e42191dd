// Output checks made apart from the program: every reference here is the
// benchmark's own computation (BFS, Brandes accumulation, closed-form
// bounds) or central::brandes_bc, never a value the checked run produced.
// Each check returns a CheckResult; a failed one fails the run with a
// nonzero exit (main.cpp).  tests/checks_test.cpp feeds each a corrupted
// output and sees it fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

using congestbc::Edge;
using congestbc::Graph;
using congestbc::NodeId;

struct CheckResult {
  bool ok = true;
  std::string detail;  ///< what differed, when !ok
};

/// d(source, v) for every v by breadth-first search.
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source);

/// Diameter and the pair-interior sum Σ_{s<t} (d(s,t) − 1) by all-pairs
/// BFS.  With halved (undirected) BC, Σ_v BC(v) equals that sum: each
/// shortest s–t path has d(s,t) − 1 interior nodes, and the dependencies
/// of a pair average over its shortest paths.
struct PairSummary {
  std::uint32_t diameter = 0;
  double interior_sum = 0.0;
};
PairSummary all_pairs_summary(const Graph& g);

/// The Theorem-1 relative envelope (1 + η)^(2D + 4) − 1 with
/// η = 2^−(L−1), L the run's soft-float mantissa bits (docs/ALGORITHM.md §7).
double theorem1_envelope(unsigned mantissa_bits, std::uint32_t diameter);

/// A relative envelope that also counts the roundings of the per-node
/// sums: (1 + η)^(2·depth·Δ + S + 3) − 1.  σ̂ and ψ̂ round once per
/// addend, a node adds at most Δ (max degree) of them per DAG level, the
/// reciprocal and the final product round once each, and the S per-source
/// contributions and the N/S scaling round once each.  The Theorem-1
/// envelope above charges one rounding per level, which the sampled
/// pipeline exceeds on BA-10k hubs (see perfbench/README.md).
double summation_envelope(unsigned mantissa_bits, std::uint32_t depth,
                          std::size_t max_degree, std::size_t sources);

/// Per node, |got − want| <= rel · |want| (a zero reference demands
/// |got| <= rel).  Also fails on a length mismatch or a non-finite value.
CheckResult check_within(const std::vector<double>& got,
                         const std::vector<double>& want, double rel,
                         const std::string& what);

/// |Σ_v bc(v) − expected| <= rel · expected.
CheckResult check_bc_sum(const std::vector<double>& bc, double expected,
                         double rel);

/// rounds <= 8N + 6D + 32 — the linear bound perfbench/README.md derives
/// from the ≈ 8N + O(D) schedule of docs/ALGORITHM.md §6.
std::uint64_t round_bound(NodeId n, std::uint32_t diameter);
CheckResult check_rounds(std::uint64_t rounds, NodeId n,
                         std::uint32_t diameter);

/// The CONGEST budget B = 16 · max(ceil(log2 N), 8) bits per edge per
/// round: O(log N) with the constant the model states.
std::uint64_t congest_budget(NodeId n);
CheckResult check_congest_budget(std::uint64_t max_bits_on_edge_round,
                                 NodeId n);

/// Brandes accumulation from `sources` only, halved and scaled by
/// N / |sources| — the estimator the sampled backend computes.  With every
/// node a source it is plain halved Brandes.
std::vector<double> restricted_brandes(const Graph& g,
                                       const std::vector<NodeId>& sources);

CheckResult check_bytes_equal(const std::vector<std::uint8_t>& got,
                              const std::vector<std::uint8_t>& want,
                              const std::string& what);

CheckResult check_count(const std::string& what, std::uint64_t got,
                        std::uint64_t want);

/// Sources whose shortest-path DAG a batch of edge changes can touch: the
/// change on (u, v) is inert for source s iff d_s(u) == d_s(v) on the
/// graph before the batch.  Counted with the benchmark's own BFS.
std::uint64_t count_dirty_sources(const Graph& before,
                                  const std::vector<Edge>& changed);

}  // namespace perfbench
