// The traced run's sampled-at-scale probe: the sampled backend (the
// paper pipeline on a source subset) on BA-10000 with S = 32, one job
// through portfolio::run_portfolio at one simulator thread, checked
// against the benchmark's own restricted Brandes.  Every node still
// sizes its state by N, so its memory shows the N² growth.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "fpa/soft_float.hpp"
#include "graph/generators.hpp"
#include "mix.hpp"
#include "portfolio/backend.hpp"

namespace perfbench {

namespace {

using congestbc::BackendId;
using congestbc::RunOutcome;

/// What the checks compare the job against.
struct Reference {
  std::vector<double> betweenness;
  std::vector<NodeId> sources;
  double envelope = 0.0;
  std::uint32_t diameter_bound = 0;
};

Reference make_reference(const Graph& g, const RunOutcome& first) {
  Reference ref;
  const unsigned mantissa =
      congestbc::SoftFloatFormat::for_graph(g.num_nodes()).mantissa_bits;
  // The sampled backend draws its own sources; a node ran a counting
  // wave iff its BFS start round T_v is nonzero.
  const std::vector<std::uint64_t>& starts = first.result.bfs_start_rounds;
  for (NodeId v = 0; v < static_cast<NodeId>(starts.size()); ++v) {
    if (starts[v] != 0) {
      ref.sources.push_back(v);
    }
  }
  ref.betweenness = restricted_brandes(g, ref.sources);
  // The sources' BFS depth and the max degree size the envelope; twice
  // one eccentricity bounds D.
  std::uint32_t depth = 0;
  for (const NodeId s : ref.sources) {
    const std::vector<std::uint32_t> d = bfs_distances(g, s);
    depth = std::max(depth, *std::max_element(d.begin(), d.end()));
  }
  ref.envelope =
      summation_envelope(mantissa, depth, g.max_degree(), ref.sources.size());
  const std::vector<std::uint32_t> d0 = bfs_distances(g, 0);
  ref.diameter_bound = 2 * *std::max_element(d0.begin(), d0.end());
  return ref;
}

void check_job(const Graph& g, const Reference& ref, const RunOutcome& job,
               RunResult& out) {
  auto record = [&](const CheckResult& c) {
    if (!c.ok) {
      out.fail_check(c.detail);
    }
  };
  const congestbc::DistributedBcResult& r = job.result;
  record(check_within(r.betweenness, ref.betweenness, ref.envelope,
                      "sampled BC vs restricted Brandes"));
  record(check_count("sampled source count", ref.sources.size(), kSampledSources));
  record(check_rounds(r.metrics.rounds, g.num_nodes(), ref.diameter_bound));
  record(check_congest_budget(r.metrics.max_bits_on_edge_round, g.num_nodes()));
}

}  // namespace

void run_sampled_probe(Context& ctx, RunResult& out) {
  congestbc::Rng rng = seeded_rng(ctx.seed, kSampledNodes);
  const Graph g = congestbc::gen::barabasi_albert(kSampledNodes, 2, rng);
  congestbc::portfolio::BackendRequest request;
  request.graph = &g;
  request.options.backend = BackendId::kSampled;
  request.options.approx_samples = kSampledSources;
  request.options.approx_seed = ctx.seed;
  request.options.threads = 1;

  const std::uint64_t rss_before = vm_rss_bytes();
  const std::uint64_t allocs_before = heap_allocations();
  const double t0 = now_s();
  RunOutcome job;
  {
    ScopedSpan span(ctx.tracer, "portfolio", "run_portfolio", 1);
    job = congestbc::portfolio::run_portfolio(request);
  }
  const double solve_s = now_s() - t0;
  const std::uint64_t allocs = heap_allocations() - allocs_before;
  const std::uint64_t hwm = vm_hwm_bytes();
  if (!job.complete()) {
    out.fail_check("sampled probe did not complete: " + job.summary());
    return;
  }
  check_job(g, make_reference(g, job), job, out);
  std::printf("sampled probe: N=%u S=%u, %.3f s, %llu rounds, peak %.0f MB\n",
              kSampledNodes, kSampledSources, solve_s,
              static_cast<unsigned long long>(job.result.metrics.rounds),
              static_cast<double>(hwm) / 1e6);
  out.add("sampled.solve_s", solve_s, "s");
  out.add("sampled.heap_allocs", static_cast<double>(allocs), "allocations");
  out.add("sampled.peak_rss_bytes", static_cast<double>(hwm), "bytes");
  out.add("sampled.state_bytes_per_node_source",
          static_cast<double>(hwm > rss_before ? hwm - rss_before : 0) /
              (static_cast<double>(kSampledNodes) * kSampledSources),
          "bytes");
}

}  // namespace perfbench
