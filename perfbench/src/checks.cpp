#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();

std::string fmt(const char* format, double a, double b, double c) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreached);
  std::vector<NodeId> queue;
  queue.reserve(g.num_nodes());
  dist[source] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (const NodeId w : g.neighbors(u)) {
      if (dist[w] == kUnreached) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

PairSummary all_pairs_summary(const Graph& g) {
  PairSummary summary;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    const std::vector<std::uint32_t> dist = bfs_distances(g, s);
    for (NodeId t = s + 1; t < g.num_nodes(); ++t) {
      summary.diameter = std::max(summary.diameter, dist[t]);
      summary.interior_sum += static_cast<double>(dist[t] - 1);
    }
  }
  return summary;
}

double theorem1_envelope(unsigned mantissa_bits, std::uint32_t diameter) {
  const double eta = std::ldexp(1.0, -static_cast<int>(mantissa_bits - 1));
  return std::expm1(static_cast<double>(2 * diameter + 4) * std::log1p(eta));
}

double summation_envelope(unsigned mantissa_bits, std::uint32_t depth,
                          std::size_t max_degree, std::size_t sources) {
  const double eta = std::ldexp(1.0, -static_cast<int>(mantissa_bits - 1));
  const double roundings = 2.0 * depth * static_cast<double>(max_degree) +
                           static_cast<double>(sources) + 3.0;
  return std::expm1(roundings * std::log1p(eta));
}

CheckResult check_within(const std::vector<double>& got,
                         const std::vector<double>& want, double rel,
                         const std::string& what) {
  if (got.size() != want.size()) {
    return {false, what + ": " + std::to_string(got.size()) +
                       " values, expected " + std::to_string(want.size())};
  }
  for (std::size_t v = 0; v < got.size(); ++v) {
    const double limit = want[v] == 0.0 ? rel : rel * std::fabs(want[v]);
    if (!std::isfinite(got[v]) || std::fabs(got[v] - want[v]) > limit) {
      return {false, what + " at node " + std::to_string(v) +
                         fmt(": got %.17g, reference %.17g, tolerance %.3g",
                             got[v], want[v], rel)};
    }
  }
  return {};
}

CheckResult check_bc_sum(const std::vector<double>& bc, double expected,
                         double rel) {
  double sum = 0.0;
  for (const double x : bc) {
    sum += x;
  }
  if (!(std::fabs(sum - expected) <= rel * expected)) {
    return {false, fmt("BC sum identity: sum %.17g, expected %.17g (tolerance %.3g)",
                       sum, expected, rel)};
  }
  return {};
}

std::uint64_t round_bound(NodeId n, std::uint32_t diameter) {
  return 8 * std::uint64_t{n} + 6 * std::uint64_t{diameter} + 32;
}

CheckResult check_rounds(std::uint64_t rounds, NodeId n,
                         std::uint32_t diameter) {
  const std::uint64_t bound = round_bound(n, diameter);
  if (rounds == 0 || rounds > bound) {
    return {false, "round bound: " + std::to_string(rounds) + " rounds, bound " +
                       std::to_string(bound) + " (N=" + std::to_string(n) +
                       ", D=" + std::to_string(diameter) + ")"};
  }
  return {};
}

std::uint64_t congest_budget(NodeId n) {
  unsigned log_n = 0;
  while ((std::uint64_t{1} << log_n) < std::max<std::uint64_t>(n, 2)) {
    ++log_n;
  }
  return 16 * std::max<std::uint64_t>(log_n, 8);
}

CheckResult check_congest_budget(std::uint64_t max_bits_on_edge_round,
                                 NodeId n) {
  const std::uint64_t budget = congest_budget(n);
  if (max_bits_on_edge_round == 0 || max_bits_on_edge_round > budget) {
    return {false, "CONGEST budget: " + std::to_string(max_bits_on_edge_round) +
                       " bits on one edge in one round, budget " +
                       std::to_string(budget)};
  }
  return {};
}

std::vector<double> restricted_brandes(const Graph& g,
                                       const std::vector<NodeId>& sources) {
  const NodeId n = g.num_nodes();
  std::vector<double> bc(n, 0.0);
  std::vector<std::uint32_t> dist(n);
  std::vector<double> sigma(n);
  std::vector<double> delta(n);
  std::vector<NodeId> order;
  order.reserve(n);
  for (const NodeId s : sources) {
    std::fill(dist.begin(), dist.end(), kUnreached);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    order.clear();
    dist[s] = 0;
    sigma[s] = 1.0;
    order.push_back(s);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId u = order[head];
      for (const NodeId w : g.neighbors(u)) {
        if (dist[w] == kUnreached) {
          dist[w] = dist[u] + 1;
          order.push_back(w);
        }
        if (dist[w] == dist[u] + 1) {
          sigma[w] += sigma[u];
        }
      }
    }
    for (std::size_t i = order.size(); i-- > 1;) {
      const NodeId w = order[i];
      for (const NodeId u : g.neighbors(w)) {
        if (dist[u] + 1 == dist[w]) {
          delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w]);
        }
      }
      bc[w] += delta[w];
    }
  }
  const double scale = 0.5 * static_cast<double>(n) /
                       static_cast<double>(std::max<std::size_t>(sources.size(), 1));
  for (double& x : bc) {
    x *= scale;
  }
  return bc;
}

CheckResult check_bytes_equal(const std::vector<std::uint8_t>& got,
                              const std::vector<std::uint8_t>& want,
                              const std::string& what) {
  if (got != want) {
    return {false, what + ": " + std::to_string(got.size()) +
                       " bytes differ from the " + std::to_string(want.size()) +
                       " bytes of the execution that filled the cache"};
  }
  return {};
}

CheckResult check_count(const std::string& what, std::uint64_t got,
                        std::uint64_t want) {
  if (got != want) {
    return {false, what + ": program reports " + std::to_string(got) +
                       ", benchmark counted " + std::to_string(want)};
  }
  return {};
}

std::uint64_t count_dirty_sources(const Graph& before,
                                  const std::vector<Edge>& changed) {
  std::uint64_t dirty = 0;
  for (NodeId s = 0; s < before.num_nodes(); ++s) {
    const std::vector<std::uint32_t> dist = bfs_distances(before, s);
    for (const Edge& e : changed) {
      if (dist[e.u] != dist[e.v]) {
        ++dirty;
        break;
      }
    }
  }
  return dirty;
}

}  // namespace perfbench
