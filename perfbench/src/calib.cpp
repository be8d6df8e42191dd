#include "calib.hpp"

#include "metrics.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kNodes = 4096;
constexpr int kEdgesPerNode = 3;
constexpr int kSearches = 8;

}  // namespace

Calibration::Calibration() : adjacency_(kNodes) {
  // Each node links to three earlier ones (a 64-bit LCG picks them), so
  // the graph is connected and every search visits every node.
  std::uint64_t x = 12345;
  for (std::uint32_t v = 1; v < kNodes; ++v) {
    for (int k = 0; k < kEdgesPerNode; ++k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const auto u = static_cast<std::uint32_t>((x >> 33) % v);
      adjacency_[v].push_back(u);
      adjacency_[u].push_back(v);
    }
  }
}

double Calibration::run_ms() {
  const double t0 = now_s();
  for (int s = 0; s < kSearches; ++s) {
    const auto source = static_cast<std::uint32_t>(s) * 97u;
    std::vector<int> dist(kNodes, -1);
    std::vector<std::uint32_t> queue{source};
    dist[source] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t v = queue[head];
      for (const std::uint32_t w : adjacency_[v]) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          checksum_ += static_cast<std::uint64_t>(dist[w]);
          queue.push_back(w);
        }
      }
    }
  }
  return (now_s() - t0) * 1e3;
}

}  // namespace perfbench
