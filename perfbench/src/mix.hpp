// Seeded inputs of the served mix and of the stream batches, shared by
// the serving workloads and the traced run's module probe.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace perfbench {

using congestbc::Edge;
using congestbc::Graph;
using congestbc::NodeId;

/// Size of the BA graph the traced run's module probe gives the cfp
/// backend (portfolio.cfp_s).
constexpr NodeId kCfpProbeNodes = 500;
/// The sampled probe's graph size and source budget.
constexpr NodeId kSampledNodes = 10000;
constexpr std::uint32_t kSampledSources = 32;

/// Node counts of the served mix: a paper_exact miss, a cfp miss, the
/// stream namespace's graph.
constexpr NodeId kExactMissNodes = 120;
constexpr NodeId kCfpMissNodes = 200;
constexpr NodeId kStreamNodes = 60;

/// An independent generator per (run seed, input stream): both words go
/// through SplitMix64 output mixing, so neighbouring seeds never replay
/// shifted copies of one sequence.
congestbc::Rng seeded_rng(std::uint64_t seed, std::uint64_t stream);

/// A fresh Barabási–Albert graph (attach 2) for mix item `index` of
/// `stream_id`; distinct (seed, stream_id, index) give distinct graphs.
Graph mix_graph(std::uint64_t seed, std::uint64_t stream_id,
                std::uint64_t index, NodeId nodes);

/// One edge change of a stream batch.
struct EdgeChange {
  bool insert = true;
  Edge edge{0, 0};
};

/// The benchmark's own copy of a stream namespace's graph.  Batches
/// insert a fresh non-edge and remove an edge an earlier batch inserted,
/// so the base graph's spanning structure is never cut and every
/// version stays connected.
class StreamTwin {
 public:
  explicit StreamTwin(std::uint64_t seed);

  const Graph& graph() const { return graph_; }
  std::uint64_t version() const { return version_; }

  /// The next batch (one insert, plus one remove once one is possible).
  std::vector<EdgeChange> next_batch();
  /// Applies a batch to the twin and bumps its version.
  void apply(const std::vector<EdgeChange>& batch);

 private:
  std::uint64_t state_;
  std::uint64_t version_ = 0;
  std::set<Edge> edges_;
  std::vector<Edge> inserted_;  ///< removable: added by earlier batches
  Graph graph_;
};

}  // namespace perfbench
