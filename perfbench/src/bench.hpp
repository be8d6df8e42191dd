// Workload entry points of the perfbench driver (main.cpp dispatches).
#pragma once

#include <cstdint>
#include <string>

#include "algo/bc_pipeline.hpp"
#include "graph/graph.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Monotonic time the process was spawned (run.py passes it), so
  /// setup_s counts exec and start-up too.
  double process_start_s = 0.0;
  /// Directory holding congestbcd and congestbc_router.
  std::string bin_dir;
  /// Scratch directory of this run (spools, server logs, the trace).
  std::string run_dir;
  Tracer tracer;
};

/// The in-process job a traced run's module probe needs from the
/// workload: the graph, the options it ran with, and what one job cost.
struct ProbeInput {
  const congestbc::Graph* graph = nullptr;
  congestbc::DistributedBcOptions options;
  std::uint32_t sources = 0;  ///< S (= N for exact runs)
  double generate_s = 0.0;    ///< input generation time of the workload
  /// One in-process job's figures; solve_s == 0 asks the probe to run one.
  double solve_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t logical_messages = 0;
  std::uint64_t job_allocs = 0;
  std::size_t max_node_state_bytes = 0;
  double state_bytes_per_node_source = 0.0;
  /// The 1-thread job's betweenness; the 2-thread run must equal it bit
  /// for bit.
  const std::vector<double>* reference = nullptr;
};

/// The traced run's sampled-at-scale probe (sampled.cpp): one checked
/// sampled job on BA-10000, reported as the sampled.* per-layer metrics.
void run_sampled_probe(Context& ctx, RunResult& out);

// Served workloads (serve.cpp): real congestbcd / congestbc_router
// processes driven through service::Client.
void run_serve_mixed(Context& ctx, RunResult& out);
void run_serve_cluster(Context& ctx, RunResult& out);

/// Live serving figures a traced run reports per layer (serve.cpp).
struct ServeLayerFigures {
  double hit_ms = 0, mutate_ms = 0, update_ms = 0;
  double queue_wait_ms = 0, hit_ratio = 0, coalesced = 0;
  double worker_utilization = 0;
  double router_hop_ms = 0, lookups_served = 0;
};

/// A short traced run of the cluster mix, for the per-layer serving
/// figures of workloads that do not serve (and the router figures of
/// serve_mixed).  Failed checks land in `out` like the workload's own.
ServeLayerFigures run_cluster_probe(Context& ctx, RunResult& out);

/// The traced run's in-process module probe (probe.cpp): appends every
/// per-layer metric that an in-process public call measures.
void run_module_probe(Context& ctx, ProbeInput& input, RunResult& out);

/// Appends the serving per-layer metrics.
void add_serve_layer_metrics(const ServeLayerFigures& f, RunResult& out);

}  // namespace perfbench
