#include "mix.hpp"

#include <algorithm>

#include "graph/generators.hpp"

namespace perfbench {

congestbc::Rng seeded_rng(std::uint64_t seed, std::uint64_t stream) {
  congestbc::Rng a(seed);
  congestbc::Rng b(a.next_u64() ^ stream);
  return congestbc::Rng(b.next_u64());
}

Graph mix_graph(std::uint64_t seed, std::uint64_t stream_id,
                std::uint64_t index, NodeId nodes) {
  congestbc::Rng rng = seeded_rng(seed, (stream_id << 32) + index);
  return congestbc::gen::barabasi_albert(nodes, 2, rng);
}

StreamTwin::StreamTwin(std::uint64_t seed)
    : state_(seeded_rng(seed, 0xB47C4ull).next_u64()),
      graph_(mix_graph(seed, 99, 0, kStreamNodes)) {
  edges_.insert(graph_.edges().begin(), graph_.edges().end());
}

std::vector<EdgeChange> StreamTwin::next_batch() {
  congestbc::Rng rng(state_);
  std::vector<EdgeChange> batch;
  while (true) {
    NodeId u = static_cast<NodeId>(rng.next_below(kStreamNodes));
    NodeId v = static_cast<NodeId>(rng.next_below(kStreamNodes));
    if (u == v) {
      continue;
    }
    if (u > v) {
      std::swap(u, v);
    }
    if (edges_.count(Edge{u, v}) == 0) {
      batch.push_back({true, Edge{u, v}});
      break;
    }
  }
  if (!inserted_.empty()) {
    batch.push_back({false, inserted_[rng.next_below(inserted_.size())]});
  }
  state_ = rng.state();
  return batch;
}

void StreamTwin::apply(const std::vector<EdgeChange>& batch) {
  for (const EdgeChange& c : batch) {
    if (c.insert) {
      edges_.insert(c.edge);
      inserted_.push_back(c.edge);
    } else {
      edges_.erase(c.edge);
      inserted_.erase(std::find(inserted_.begin(), inserted_.end(), c.edge));
    }
  }
  graph_ = Graph(kStreamNodes, std::vector<Edge>(edges_.begin(), edges_.end()));
  ++version_;
}

}  // namespace perfbench
