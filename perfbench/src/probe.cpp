// The traced run's module probe: one timed public call per layer, on the
// workload's own graph and options, each inside a span of its module.
#include <cstdio>

#include "algo/apsp.hpp"
#include "bench.hpp"
#include "central/brandes.hpp"
#include "checks.hpp"
#include "cluster/ring.hpp"
#include "common/rng.hpp"
#include "fpa/soft_float.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mix.hpp"
#include "portfolio/backend.hpp"
#include "service/protocol.hpp"
#include "stream/incremental_bc.hpp"
#include "stream/versioned_graph.hpp"

namespace perfbench {

namespace {

using congestbc::BackendId;
using congestbc::DistributedBcOptions;

/// Median seconds of `reps` calls of fn, each inside a span.
template <typename Fn>
double time_median(Context& ctx, const char* module, const char* name, int reps,
                   Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(ctx.tracer, module, name, static_cast<std::uint64_t>(i + 1));
    const double t0 = now_s();
    fn();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

volatile std::size_t g_sink = 0;

/// Keeps a computed value alive so the timed loop is not optimized away.
void keep(std::size_t value) { g_sink = value; }

void record(const CheckResult& c, RunResult& out) {
  if (!c.ok) {
    out.fail_check(c.detail);
  }
}

void probe_fpa(Context& ctx, const std::vector<double>& values, NodeId n,
               RunResult& out) {
  using congestbc::SoftFloat;
  const congestbc::SoftFloatFormat format =
      congestbc::SoftFloatFormat::for_graph(n);
  std::vector<SoftFloat> encoded;
  for (const double x : values) {
    // Path counts and dependencies of the run span [1, max BC].
    encoded.push_back(SoftFloat::from_double(x + 1.0, format,
                                             congestbc::RoundingMode::kUp));
  }
  const int reps = 20;
  std::size_t sink = 0;
  const double codec_s = time_median(ctx, "fpa", "pack_unpack", reps, [&] {
    congestbc::BitWriter w;
    for (const SoftFloat& v : encoded) v.pack(w, format);
    congestbc::BitReader r(w.bytes(), w.bit_size());
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      sink += SoftFloat::unpack(r, format).is_zero() ? 1u : 0u;
    }
  });
  const double arith_s = time_median(ctx, "fpa", "multiply_add", reps, [&] {
    SoftFloat acc;
    for (std::size_t i = 1; i < encoded.size(); ++i) {
      const SoftFloat p = congestbc::multiply(encoded[i - 1], encoded[i], format,
                                              congestbc::RoundingMode::kUp);
      acc = congestbc::add(acc, p, format, congestbc::RoundingMode::kDown);
    }
    sink += acc.is_zero() ? 1u : 0u;
  });
  const double count = static_cast<double>(encoded.size());
  keep(sink);
  out.add("fpa.codec_ns", codec_s / count * 1e9, "ns");
  out.add("fpa.arith_ns", arith_s / (count - 1) * 1e9, "ns");
}

void probe_stream(Context& ctx, RunResult& out) {
  StreamTwin twin(ctx.seed);
  congestbc::stream::VersionedGraph versioned(twin.graph());
  congestbc::stream::IncrementalBcConfig config;
  congestbc::stream::IncrementalBc maintainer(twin.graph(), config);
  std::vector<double> apply_s;
  std::vector<double> incremental_s;
  double dirty = 0;
  const std::uint64_t batches = 12;
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::vector<EdgeChange> batch = twin.next_batch();
    std::vector<congestbc::stream::EdgeOp> ops;
    std::vector<Edge> changed;
    for (const EdgeChange& c : batch) {
      ops.push_back({c.insert ? congestbc::stream::EdgeOpKind::kInsert
                              : congestbc::stream::EdgeOpKind::kRemove,
                     c.edge.u, c.edge.v});
      changed.push_back(c.edge);
    }
    const std::uint64_t expected_dirty = count_dirty_sources(twin.graph(), changed);
    twin.apply(batch);
    {
      ScopedSpan span(ctx.tracer, "stream", "VersionedGraph::apply", b + 1);
      const double t0 = now_s();
      versioned.apply(ops);
      apply_s.push_back(now_s() - t0);
    }
    congestbc::stream::IncrementalApplyStats stats;
    {
      ScopedSpan span(ctx.tracer, "stream", "IncrementalBc::apply", b + 1);
      const double t0 = now_s();
      stats = maintainer.apply(versioned.head(),
                               versioned.delta(versioned.version()));
      incremental_s.push_back(now_s() - t0);
    }
    dirty += static_cast<double>(stats.dirty_sources);
    record(check_count("stream dirty sources", stats.dirty_sources, expected_dirty),
           out);
    const PairSummary pairs = all_pairs_summary(twin.graph());
    record(check_within(maintainer.scores().betweenness,
                        congestbc::brandes_bc(twin.graph()),
                        theorem1_envelope(congestbc::SoftFloatFormat::for_graph(
                                              kStreamNodes).mantissa_bits,
                                          pairs.diameter),
                        "incremental BC vs Brandes"),
           out);
  }
  out.add("stream.apply_us", median(apply_s) * 1e6, "us");
  out.add("stream.incremental_ms", median(incremental_s) * 1e3, "ms");
  out.add("stream.dirty_sources", dirty / static_cast<double>(batches), "sources");
}

void probe_ring(Context& ctx, RunResult& out) {
  congestbc::cluster::HashRing ring;
  ring.add("127.0.0.1:40001");
  ring.add("127.0.0.1:40002");
  congestbc::Rng rng = seeded_rng(ctx.seed, 0x4196ull);
  std::vector<std::uint64_t> keys(4096);
  for (std::uint64_t& k : keys) k = rng.next_u64();
  std::size_t sink = 0;
  const double s = time_median(ctx, "cluster", "HashRing::owner", 9, [&] {
    for (const std::uint64_t k : keys) sink += ring.owner(k).size();
  });
  keep(sink);
  out.add("cluster.route_us", s / static_cast<double>(keys.size()) * 1e6, "us");
}

}  // namespace

void run_module_probe(Context& ctx, ProbeInput& in, RunResult& out) {
  ctx.tracer.set_enabled(true);
  const Graph& g = *in.graph;
  const NodeId n = g.num_nodes();
  congestbc::portfolio::BackendRequest request;
  request.graph = &g;
  request.options = in.options;

  // graph: generation (the workload's set-up) and edge-list parsing.
  out.add("graph.generate_s", in.generate_s, "s");
  const std::string text = congestbc::write_edge_list_text(g);
  const double parse_s = time_median(ctx, "graph", "read_edge_list_text", 5, [&] {
    record(check_count("parsed edge count",
                       congestbc::read_edge_list_text(text).num_edges(),
                       g.num_edges()),
           out);
  });
  out.add("graph.parse_ms", parse_s * 1e3, "ms");

  std::vector<double> one_thread;
  if (in.solve_s == 0.0) {
    // Served workloads: one in-process job on the mix's graph.
    const std::uint64_t rss_before = vm_rss_bytes();
    const std::uint64_t allocs_before = heap_allocations();
    ScopedSpan span(ctx.tracer, "portfolio", "run_portfolio", 1);
    const double t0 = now_s();
    const congestbc::RunOutcome job = congestbc::portfolio::run_portfolio(request);
    in.solve_s = now_s() - t0;
    in.job_allocs = heap_allocations() - allocs_before;
    const std::uint64_t hwm = vm_hwm_bytes();
    in.rounds = job.result.metrics.rounds;
    in.logical_messages = job.result.metrics.total_logical_messages;
    in.max_node_state_bytes = job.result.max_node_state_bytes;
    in.state_bytes_per_node_source =
        static_cast<double>(hwm > rss_before ? hwm - rss_before : 0) /
        (static_cast<double>(n) * in.sources);
    one_thread = job.result.betweenness;
    in.reference = &one_thread;
  }

  // algo: the counting phase alone; aggregation is the rest of a job.
  double counting_s = 0.0;
  congestbc::DistributedApspResult apsp;
  {
    ScopedSpan span(ctx.tracer, "algo", "run_distributed_apsp", 1);
    const double t0 = now_s();
    apsp = congestbc::run_distributed_apsp(g, in.options);
    counting_s = now_s() - t0;
  }
  if (in.sources == n) {
    record(check_count("APSP diameter", apsp.diameter, all_pairs_summary(g).diameter),
           out);
  }
  out.add("algo.counting_s", counting_s, "s");
  out.add("algo.aggregation_s", in.solve_s - counting_s, "s");

  // congest: the simulator's throughput and state, from the 1-thread job.
  out.add("congest.rounds_per_s", static_cast<double>(in.rounds) / in.solve_s,
          "rounds/s");
  out.add("congest.messages_per_s",
          static_cast<double>(in.logical_messages) / in.solve_s, "messages/s");
  out.add("congest.allocs_per_message",
          static_cast<double>(in.job_allocs) /
              static_cast<double>(in.logical_messages),
          "allocations");
  out.add("congest.max_node_state_bytes",
          static_cast<double>(in.max_node_state_bytes), "bytes");
  out.add("congest.state_bytes_per_node_source", in.state_bytes_per_node_source,
          "bytes");

  DistributedBcOptions two = in.options;
  two.threads = 2;
  congestbc::DistributedBcResult two_thread;
  double two_s = 0.0;
  {
    ScopedSpan span(ctx.tracer, "algo", "run_distributed_bc", 2);
    const double t0 = now_s();
    two_thread = congestbc::run_distributed_bc(g, two);
    two_s = now_s() - t0;
  }
  if (in.reference != nullptr && two_thread.betweenness != *in.reference) {
    out.fail_check("2-thread run differs from the 1-thread run");
  }
  out.add("congest.speedup_2t", in.solve_s / two_s, "x");

  // fpa: the soft-float codec and arithmetic over the run's values.
  probe_fpa(ctx, two_thread.betweenness, n, out);

  // central: the centralized baseline on the same graph — Brandes over
  // every source, or the Brandes–Pich estimator over S sources when the
  // workload samples.  solve_s / brandes_s is the simulation overhead.
  double brandes_s = 0.0;
  if (in.sources == n) {
    brandes_s = time_median(ctx, "central", "brandes_bc", 1, [&] {
      record(check_within(two_thread.betweenness, congestbc::brandes_bc(g),
                          theorem1_envelope(congestbc::SoftFloatFormat::for_graph(n)
                                                .mantissa_bits,
                                            two_thread.diameter),
                          "2-thread BC vs Brandes"),
             out);
    });
  } else {
    congestbc::Rng rng = seeded_rng(ctx.seed, 0xB2A4ull);
    brandes_s = time_median(ctx, "central", "sampled_bc", 1, [&] {
      keep(congestbc::sampled_bc(g, in.sources, rng).size());
    });
  }
  out.add("central.brandes_s", brandes_s, "s");

  // portfolio: the cfp backend on a BA-500 graph of this seed.
  {
    congestbc::Rng rng = seeded_rng(ctx.seed, kCfpProbeNodes);
    const Graph ba = congestbc::gen::barabasi_albert(kCfpProbeNodes, 2, rng);
    congestbc::portfolio::BackendRequest cfp;
    cfp.graph = &ba;
    cfp.options.backend = BackendId::kCfp;
    congestbc::RunOutcome outcome;
    const double cfp_s = time_median(ctx, "portfolio", "run_portfolio(cfp)", 1, [&] {
      outcome = congestbc::portfolio::run_portfolio(cfp);
    });
    record(check_within(outcome.result.betweenness, congestbc::brandes_bc(ba), 1e-9,
                        "cfp BC vs Brandes"),
           out);
    out.add("portfolio.cfp_s", cfp_s, "s");
  }

  // snapshot: the run fingerprint a served request is keyed by.
  std::uint64_t fp = 0;
  const double fp_s = time_median(ctx, "snapshot", "run_fingerprint", 9, [&] {
    fp ^= congestbc::run_fingerprint(g, in.options);
  });
  keep(static_cast<std::size_t>(fp));
  out.add("snapshot.fingerprint_us", fp_s * 1e6, "us");

  // service: wire encode/decode of a SubmitRequest and a ResultBlock.
  {
    namespace svc = congestbc::service;
    svc::SubmitRequest submit;
    submit.graph = text;
    svc::ResultBlock block;
    block.rounds = two_thread.rounds;
    block.diameter = two_thread.diameter;
    block.betweenness = two_thread.betweenness;
    block.closeness = two_thread.closeness;
    block.graph_centrality = two_thread.graph_centrality;
    block.stress = two_thread.stress;
    block.eccentricities = two_thread.eccentricities;
    congestbc::BitWriter request_bits;
    congestbc::BitWriter block_bits;
    const double enc_s = time_median(ctx, "service", "encode", 9, [&] {
      request_bits = svc::encode_request(svc::make_submit(submit));
      block_bits = svc::encode_result_block(block);
    });
    svc::FramePayload payload{request_bits.bytes(), request_bits.bit_size()};
    svc::ResultBlock decoded;
    const double dec_s = time_median(ctx, "service", "decode", 9, [&] {
      const svc::Request r = svc::decode_request(payload);
      congestbc::BitReader reader(block_bits.bytes(), block_bits.bit_size());
      decoded = svc::decode_result_block(reader);
      if (r.submit.graph.size() != text.size()) {
        out.fail_check("SubmitRequest round trip lost the graph text");
      }
    });
    if (decoded.betweenness != block.betweenness) {
      out.fail_check("ResultBlock round trip changed the betweenness");
    }
    out.add("service.encode_us", enc_s * 1e6, "us");
    out.add("service.decode_us", dec_s * 1e6, "us");
  }

  probe_stream(ctx, out);
  probe_ring(ctx, out);
  ctx.tracer.set_enabled(false);
}

}  // namespace perfbench
