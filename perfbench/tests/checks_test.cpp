// Corrupted-output tests of perfbench's checks: each check must accept a
// real output of the program and reject the same output with one value
// corrupted.  Run with `python3 perfbench/run.py --self-test`; exits
// nonzero when any check accepts a corrupted output or rejects a real one.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algo/bc_pipeline.hpp"
#include "central/brandes.hpp"
#include "checks.hpp"
#include "fpa/soft_float.hpp"
#include "metrics.hpp"
#include "mix.hpp"
#include "portfolio/backend.hpp"
#include "service/protocol.hpp"
#include "stream/incremental_bc.hpp"
#include "stream/versioned_graph.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) {
    ++g_failures;
  }
}

/// The check passes on `good` and fails on `bad`.
void expect_catches(const CheckResult& good, const CheckResult& bad,
                    const std::string& what) {
  expect(good.ok, what + ": accepts the real output" +
                      (good.ok ? "" : " (" + good.detail + ")"));
  expect(!bad.ok, what + ": rejects the corrupted output");
}

std::vector<double> bumped(std::vector<double> v, std::size_t at, double rel) {
  v[at] *= 1.0 + rel;
  return v;
}

void test_exact_checks() {
  const Graph g = mix_graph(7, 1, 0, 80);
  congestbc::portfolio::BackendRequest request;
  request.graph = &g;
  const congestbc::RunOutcome run = congestbc::portfolio::run_portfolio(request);
  const std::vector<double> brandes = congestbc::brandes_bc(g);
  const PairSummary pairs = all_pairs_summary(g);
  const double envelope = theorem1_envelope(
      congestbc::SoftFloatFormat::for_graph(g.num_nodes()).mantissa_bits,
      pairs.diameter);
  const std::vector<double>& bc = run.result.betweenness;

  // The highest-BC node, so a relative corruption is a visible one.
  std::size_t hub = 0;
  for (std::size_t v = 0; v < bc.size(); ++v) {
    if (brandes[v] > brandes[hub]) hub = v;
  }
  expect_catches(check_within(bc, brandes, envelope, "exact"),
                 check_within(bumped(bc, hub, 10 * envelope), brandes, envelope,
                              "exact"),
                 "exact BC vs Brandes (10x the envelope on one node)");
  expect_catches(check_bc_sum(bc, pairs.interior_sum, envelope),
                 check_bc_sum(bumped(bc, hub, 1e-3), pairs.interior_sum, envelope),
                 "BC sum identity");
  const std::uint64_t rounds = run.result.metrics.rounds;
  expect_catches(check_rounds(rounds, g.num_nodes(), pairs.diameter),
                 check_rounds(round_bound(g.num_nodes(), pairs.diameter) + 1,
                              g.num_nodes(), pairs.diameter),
                 "round bound");
  const std::uint64_t bits = run.result.metrics.max_bits_on_edge_round;
  expect_catches(check_congest_budget(bits, g.num_nodes()),
                 check_congest_budget(congest_budget(g.num_nodes()) + 1,
                                      g.num_nodes()),
                 "CONGEST budget");
  std::vector<double> nan = bc;
  nan[0] = std::nan("");
  expect(!check_within(nan, brandes, envelope, "exact").ok,
         "exact BC vs Brandes: rejects a NaN");
  expect(!check_within(std::vector<double>(bc.begin(), bc.end() - 1), brandes,
                       envelope, "exact")
              .ok,
         "exact BC vs Brandes: rejects a short vector");
}

void test_sampled_check() {
  const Graph g = mix_graph(7, 5, 0, 300);
  std::vector<NodeId> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) all.push_back(v);
  const std::vector<double> brandes = congestbc::brandes_bc(g);
  expect(check_within(restricted_brandes(g, all), brandes, 1e-12, "all sources").ok,
         "restricted Brandes over every source equals brandes_bc");

  congestbc::portfolio::BackendRequest request;
  request.graph = &g;
  request.options.backend = congestbc::BackendId::kSampled;
  request.options.approx_samples = 16;
  request.options.approx_seed = 3;
  const congestbc::RunOutcome run = congestbc::portfolio::run_portfolio(request);
  std::vector<NodeId> sources;
  std::uint32_t depth = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (run.result.bfs_start_rounds[v] != 0) {
      sources.push_back(v);
      const std::vector<std::uint32_t> d = bfs_distances(g, v);
      for (const std::uint32_t x : d) depth = std::max(depth, x);
    }
  }
  expect(sources.size() == 16, "sampled run: sources recovered from T_v");
  const std::vector<double> ref = restricted_brandes(g, sources);
  const double envelope = summation_envelope(
      congestbc::SoftFloatFormat::for_graph(g.num_nodes()).mantissa_bits, depth,
      g.max_degree(), sources.size());
  std::size_t hub = 0;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    if (ref[v] > ref[hub]) hub = v;
  }
  expect_catches(check_within(run.result.betweenness, ref, envelope, "sampled"),
                 check_within(bumped(run.result.betweenness, hub, 10 * envelope), ref,
                              envelope, "sampled"),
                 "sampled BC vs restricted Brandes");
}

void test_served_checks() {
  namespace svc = congestbc::service;
  const Graph g = mix_graph(7, 2, 0, 120);
  congestbc::portfolio::BackendRequest request;
  request.graph = &g;
  request.options.backend = congestbc::BackendId::kCfp;
  const congestbc::RunOutcome run = congestbc::portfolio::run_portfolio(request);
  const std::vector<double> brandes = congestbc::brandes_bc(g);
  std::size_t hub = 0;
  for (std::size_t v = 0; v < brandes.size(); ++v) {
    if (brandes[v] > brandes[hub]) hub = v;
  }
  expect_catches(check_within(run.result.betweenness, brandes, 1e-9, "cfp"),
                 check_within(bumped(run.result.betweenness, hub, 1e-8), brandes,
                              1e-9, "cfp"),
                 "served cfp miss vs Brandes");

  svc::ResultBlock block;
  block.betweenness = run.result.betweenness;
  block.closeness = run.result.closeness;
  block.graph_centrality = run.result.graph_centrality;
  block.stress = run.result.stress;
  block.eccentricities = run.result.eccentricities;
  const congestbc::BitWriter encoded = svc::encode_result_block(block);
  std::vector<std::uint8_t> flipped = encoded.bytes();
  flipped[flipped.size() / 2] ^= 0x10;
  expect_catches(check_bytes_equal(encoded.bytes(), encoded.bytes(), "hit"),
                 check_bytes_equal(flipped, encoded.bytes(), "hit"),
                 "cache hit byte-identical to its miss");
}

void test_stream_checks() {
  StreamTwin twin(11);
  congestbc::stream::VersionedGraph versioned(twin.graph());
  congestbc::stream::IncrementalBc maintainer(twin.graph(), {});
  bool dirty_ok = true;
  for (int b = 0; b < 6; ++b) {
    const std::vector<EdgeChange> batch = twin.next_batch();
    std::vector<congestbc::stream::EdgeOp> ops;
    std::vector<Edge> changed;
    for (const EdgeChange& c : batch) {
      ops.push_back({c.insert ? congestbc::stream::EdgeOpKind::kInsert
                              : congestbc::stream::EdgeOpKind::kRemove,
                     c.edge.u, c.edge.v});
      changed.push_back(c.edge);
    }
    const std::uint64_t expected = count_dirty_sources(twin.graph(), changed);
    twin.apply(batch);
    versioned.apply(ops);
    const auto stats =
        maintainer.apply(versioned.head(), versioned.delta(versioned.version()));
    dirty_ok = dirty_ok && check_count("dirty", stats.dirty_sources, expected).ok;
  }
  expect(dirty_ok, "dirty-source count matches IncrementalBc over 6 batches");
  expect(!check_count("STATS dirty_sources_rerun", 41, 40).ok,
         "STATS count check rejects an off-by-one count");

  const std::vector<double> brandes = congestbc::brandes_bc(twin.graph());
  const double envelope = theorem1_envelope(
      congestbc::SoftFloatFormat::for_graph(kStreamNodes).mantissa_bits,
      all_pairs_summary(twin.graph()).diameter);
  const std::vector<double>& bc = maintainer.scores().betweenness;
  std::size_t hub = 0;
  for (std::size_t v = 0; v < brandes.size(); ++v) {
    if (brandes[v] > brandes[hub]) hub = v;
  }
  expect_catches(check_within(bc, brandes, envelope, "incremental"),
                 check_within(bumped(bc, hub, 10 * envelope), brandes, envelope,
                              "incremental"),
                 "incremental result vs Brandes on the twin graph");
}

void test_result_line() {
  RunResult result;
  result.attempted = 3;
  result.add("solve_s", 0.5, "s");
  expect(result_json(result).find("\"correct\": true") != std::string::npos,
         "result line reports a clean run as correct");
  result.fail_check("corrupted");
  expect(result_json(result).find("\"correct\": false") != std::string::npos,
         "a failed check marks the result line incorrect");
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  test_exact_checks();
  test_sampled_check();
  test_served_checks();
  test_stream_checks();
  test_result_line();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
