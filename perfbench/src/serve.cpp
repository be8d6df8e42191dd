// serve_mixed and serve_cluster: real congestbcd (and congestbc_router)
// processes driven over two service::Client connections, each a closed
// loop in its own thread.  One cycle of the mix:
//
//   both lanes  a coalescing pair: lane 0 submits a fresh BA-120
//               paper_exact graph, lane 1 submits the same graph as soon
//               as lane 0's submit is admitted
//   then        lane 0 runs one fresh BA-120 paper_exact miss while lane 1
//               is served kHitsPerLane cache hits on its earlier misses
//   then        lane 0 is served kHitsPerLane hits while lane 1 runs one
//               fresh BA-200 cfp miss, one MUTATE batch on the stream
//               namespace and an incremental SUBMIT at the version it
//               created
//
// The lanes meet at a barrier between cycles, so every run attempts whole
// cycles.  RESULT is polled every kPollMs.
#include <array>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "calib.hpp"
#include "central/brandes.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "fpa/soft_float.hpp"
#include "graph/io.hpp"
#include "mix.hpp"
#include "proc.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"

namespace perfbench {

namespace {

namespace svc = congestbc::service;

constexpr int kPollMs = 1;
constexpr std::uint64_t kHitsPerLane = 4;
/// Hits repeat one of the lane's last kHitWindow misses.  With the
/// daemons' cache capped at kCacheEntries and finished jobs retired after
/// kJobRetentionMs, server memory reaches a steady state within seconds,
/// so peak_rss_bytes does not grow with the number of cycles a run fits.
constexpr std::size_t kHitWindow = 16;
constexpr const char* kCacheEntries = "256";
constexpr const char* kJobRetentionMs = "2000";
constexpr const char* kNamespace = "bench";
/// The end-to-end times read the fastest kFastShare of a run's units, not
/// their median.  The host's virtual CPUs switch between two speeds about
/// 1.65x apart every few seconds, so the median of a run lands in either
/// mode depending on the share of the run spent slow; the fast tail moves
/// with the program and with the slower drift of the whole host, which
/// the Calibration kernel's own fastest kFastShare takes out.
constexpr double kFastShare = 0.05;

double fast(const std::vector<double>& ms) { return quantile(ms, kFastShare); }

/// A fresh execution; later hits on its graph must reproduce its bytes.
struct Filled {
  Graph graph;
  bool exact = true;  ///< paper_exact (else cfp)
  std::vector<std::uint8_t> bytes;
  double ms = 0.0;
  bool timed = false;
};

struct Served {
  svc::SubmitDisposition disposition = svc::SubmitDisposition::kQueued;
  std::vector<std::uint8_t> bytes;
  double ms = 0.0;
  double queue_wait_ms = -1.0;  ///< when watched
  std::uint64_t allocs = 0;     ///< operator-new calls on this thread
};

/// One connection and the closed loop it runs.
struct Lane {
  svc::Client client;
  congestbc::Rng rng{1};
  std::vector<Filled> filled;
  /// Coalescing pairs: (cycle, bytes) of the leader (lane 0) or follower.
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> pair_bytes;
  // Samples of timed cycles.
  std::vector<double> hit_ms, mutate_ms, update_ms, queue_wait_ms, allocs;
  std::uint64_t completed = 0;  ///< requests completed in timed cycles
  // Whole-run counts, for the STATS check and the result line.
  std::uint64_t submits = 0, cache_hits = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;        ///< failed operations
  std::vector<std::string> bad_outputs;   ///< failed checks
};

/// An incremental result with the twin's graph at its version.
struct Update {
  Graph graph;
  std::vector<std::uint8_t> bytes;
};

struct Tier {
  std::vector<std::unique_ptr<ServerProcess>> daemons;
  std::unique_ptr<ServerProcess> router;
  std::uint16_t port = 0;
};

Tier start_tier(const Context& ctx, bool cluster, const std::string& tag) {
  Tier tier;
  const unsigned daemons = cluster ? 2 : 1;
  for (unsigned i = 0; i < daemons; ++i) {
    const std::string spool =
        ctx.run_dir + "/" + tag + "-spool" + std::to_string(i);
    std::filesystem::remove_all(spool);
    std::filesystem::create_directories(spool);
    tier.daemons.push_back(std::make_unique<ServerProcess>(
        std::vector<std::string>{ctx.bin_dir + "/congestbcd", "--port", "0",
                                 "--workers", cluster ? "1" : "2",
                                 "--queue-limit", "4096", "--cache", kCacheEntries,
                                 "--job-retention", kJobRetentionMs,
                                 "--spool", spool},
        ctx.run_dir + "/" + tag + "-daemon" + std::to_string(i) + ".log"));
  }
  if (!cluster) {
    tier.port = tier.daemons[0]->port();
    return tier;
  }
  std::string workers;
  for (const auto& d : tier.daemons) {
    workers += (workers.empty() ? "" : ",") + d->address();
  }
  tier.router = std::make_unique<ServerProcess>(
      std::vector<std::string>{ctx.bin_dir + "/congestbc_router", "--port",
                               "0", "--workers", workers},
      ctx.run_dir + "/" + tag + "-router.log");
  tier.port = tier.router->port();
  return tier;
}

svc::SubmitRequest graph_submit(const Graph& g, bool exact) {
  svc::SubmitRequest r;
  r.graph = congestbc::write_edge_list_text(g);
  r.backend = static_cast<std::uint8_t>(
      exact ? congestbc::BackendId::kPaperExact : congestbc::BackendId::kCfp);
  return r;
}

/// SUBMIT, then RESULT every kPollMs until the block is ready.  Throws
/// on any disposition or job state a healthy run never produces.
/// `admitted` runs right after the SUBMIT reply (or its failure).
Served submit_and_wait(Context& ctx, Lane& lane,
                       const svc::SubmitRequest& request, const char* what,
                       std::uint64_t request_id, bool watch_queue,
                       const std::function<void()>& admitted = {}) {
  ScopedSpan span(ctx.tracer, "service", what, request_id);
  Served served;
  const std::uint64_t allocs_before = thread_heap_allocations();
  const double t0 = now_s();
  svc::SubmitReply reply;
  try {
    ScopedSpan s(ctx.tracer, "service", "Client::submit", request_id, span.id());
    reply = lane.client.submit(request);
  } catch (...) {
    if (admitted) admitted();
    throw;
  }
  if (admitted) admitted();
  ++lane.submits;
  served.disposition = reply.disposition;
  if (reply.disposition == svc::SubmitDisposition::kCacheHit) {
    ++lane.cache_hits;
  } else if (reply.disposition != svc::SubmitDisposition::kQueued &&
             reply.disposition != svc::SubmitDisposition::kCoalesced) {
    throw std::runtime_error(std::string(what) + " refused: " +
                             svc::to_string(reply.disposition) + " " +
                             reply.detail);
  }
  if (watch_queue && reply.disposition == svc::SubmitDisposition::kQueued) {
    while (true) {
      svc::JobState state;
      {
        ScopedSpan s(ctx.tracer, "service", "Client::status", request_id,
                     span.id());
        state = lane.client.status(reply.job_id).state;
      }
      if (state != svc::JobState::kQueued) {
        served.queue_wait_ms = (now_s() - t0) * 1e3;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
    }
  }
  while (true) {
    svc::ResultReply result;
    {
      ScopedSpan s(ctx.tracer, "service", "Client::result", request_id,
                   span.id());
      result = lane.client.result(reply.job_id);
    }
    if (result.ready) {
      served.bytes = std::move(result.block_bytes);
      break;
    }
    if (result.state != svc::JobState::kQueued &&
        result.state != svc::JobState::kRunning) {
      // A job that ends without a result is a failed output, as an
      // incomplete job is in the sampled probe.
      const std::string detail = std::string(what) + " ended " +
                                 svc::to_string(result.state) + ": " +
                                 result.detail;
      lane.bad_outputs.push_back(detail);
      throw std::runtime_error(detail);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
  }
  served.ms = (now_s() - t0) * 1e3;
  served.allocs = thread_heap_allocations() - allocs_before;
  return served;
}

svc::ResultBlock decode_block(const std::vector<std::uint8_t>& bytes) {
  congestbc::BitReader reader(bytes, bytes.size() * 8);
  return svc::decode_result_block(reader);
}

double exact_envelope(const Graph& g) {
  return theorem1_envelope(
      congestbc::SoftFloatFormat::for_graph(g.num_nodes()).mantissa_bits,
      all_pairs_summary(g).diameter);
}

/// Figures of the samples gathered since the last clear_samples().
struct ServeFigures {
  double solve_s = 0, miss_ms = 0, hit_ms = 0, mutate_ms = 0, update_ms = 0;
  double queue_wait_ms = 0, requests_per_s = 0, heap_allocs = 0;
  double rounds = 0, messages = 0, wire_bits = 0;
  /// The calibration kernel's fastest kFastShare, and that over its
  /// reference.
  double calibration_ms = 0, host_slowdown = 0;
};

/// A served tier plus everything its loop has measured.
class ServeRun {
 public:
  ServeRun(Context& ctx, bool cluster, const std::string& tag)
      : ctx_(ctx), cluster_(cluster), tier_(start_tier(ctx, cluster, tag)),
        twin_(ctx.seed) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      lanes_[i].client.connect("127.0.0.1", tier_.port);
      lanes_[i].rng = seeded_rng(ctx.seed, 0x4171ull + i);
    }
    // The stream namespace and its first, full incremental build.
    svc::MutateRequest create;
    create.ns = kNamespace;
    create.base_graph = congestbc::write_edge_list_text(twin_.graph());
    const svc::MutateReply created = lanes_[1].client.mutate(create);
    if (created.outcome != svc::MutateOutcome::kCreated) {
      throw std::runtime_error("namespace creation: " + created.detail);
    }
    setup_done_s_ = now_s();
    calibration_.emplace();
    // The first, full incremental build: a request, not set-up.
    expected_dirty_ = kStreamNodes;
    ++lanes_[1].attempted;
    run_update(lanes_[1], 0, false);
  }

  ~ServeRun() { stop_tier(); }
  ServeRun(const ServeRun&) = delete;
  ServeRun& operator=(const ServeRun&) = delete;

  /// Runs whole cycles until `seconds` of timed cycles have passed, or
  /// exactly `max_cycles` cycles when nonzero.  The first cycle of a
  /// ServeRun is an untimed warm-up.
  void run_cycles(double seconds, int max_cycles, bool watch_queue) {
    bool stop = false;
    bool timed = false;
    std::uint64_t current = 0;
    int started = 0;
    double phase_start = -1.0;
    double cycle_start = 0.0;
    std::uint64_t completed_at_start = 0;
    std::barrier cycle_sync(2, [&]() noexcept {
      // Both lanes wait here, so their counters are quiescent and the
      // servers idle: the place to time the calibration kernel.
      const double now = now_s();
      const std::uint64_t completed = lanes_[0].completed + lanes_[1].completed;
      if (timed) {
        cycle_rates_.push_back(static_cast<double>(completed - completed_at_start) /
                               (now - cycle_start));
      }
      completed_at_start = completed;
      stop = max_cycles > 0 ? started >= max_cycles
                            : phase_start >= 0 && now - phase_start >= seconds;
      if (stop) {
        timed = false;
        return;
      }
      current = cycle_++;
      timed = current > 0;
      if (timed && phase_start < 0) {
        phase_start = now;
      }
      ++started;
      if (timed) {
        calibration_ms_.push_back(calibration_->run_ms());
      }
      cycle_start = now_s();
    });
    std::barrier pair_sync(2);
    auto lane_loop = [&](std::size_t index) {
      while (true) {
        cycle_sync.arrive_and_wait();
        if (stop) {
          return;
        }
        run_cycle(lanes_[index], index, current, timed, watch_queue,
                  [&] { pair_sync.arrive_and_wait(); });
      }
    };
    std::thread other(lane_loop, 1);
    lane_loop(0);
    other.join();
  }

  void clear_samples() {
    for (Lane& lane : lanes_) {
      for (Filled& f : lane.filled) f.timed = false;
      lane.hit_ms.clear();
      lane.mutate_ms.clear();
      lane.update_ms.clear();
      lane.queue_wait_ms.clear();
      lane.allocs.clear();
    }
    cycle_rates_.clear();
    calibration_ms_.clear();
  }

  /// `watch_queue` says whether the cycles measured queue waits.  An
  /// empty sample list fails the run: its figure would read 0.
  ServeFigures figures(bool watch_queue, RunResult& out) const {
    ServeFigures f;
    std::vector<double> exact_ms, cfp_ms, hit, mutate, update, queue, allocs;
    std::vector<double> rounds, messages, bits;
    for (const Lane& lane : lanes_) {
      for (const Filled& m : lane.filled) {
        if (!m.timed) continue;
        if (!m.exact) {
          cfp_ms.push_back(m.ms);
        } else {
          exact_ms.push_back(m.ms);
          const svc::ResultBlock block = decode_block(m.bytes);
          rounds.push_back(static_cast<double>(block.rounds));
          messages.push_back(static_cast<double>(block.total_physical_messages));
          bits.push_back(static_cast<double>(block.total_bits));
        }
      }
      hit.insert(hit.end(), lane.hit_ms.begin(), lane.hit_ms.end());
      mutate.insert(mutate.end(), lane.mutate_ms.begin(), lane.mutate_ms.end());
      update.insert(update.end(), lane.update_ms.begin(), lane.update_ms.end());
      queue.insert(queue.end(), lane.queue_wait_ms.begin(), lane.queue_wait_ms.end());
      allocs.insert(allocs.end(), lane.allocs.begin(), lane.allocs.end());
    }
    auto need = [&](const char* what, const std::vector<double>& v) {
      if (v.empty()) out.fail_check(std::string("no timed ") + what);
    };
    need("paper_exact miss", exact_ms);
    need("cfp miss", cfp_ms);
    need("cache hit", hit);
    need("MUTATE", mutate);
    need("incremental update", update);
    need("cycle", cycle_rates_);
    need("calibration", calibration_ms_);
    if (watch_queue) need("queue wait", queue);
    // Times are scaled to the host's reference speed (calib.hpp).
    f.calibration_ms = fast(calibration_ms_);
    f.host_slowdown = f.calibration_ms / Calibration::kReferenceMs;
    const double scale = f.host_slowdown > 0 ? 1.0 / f.host_slowdown : 0.0;
    f.solve_s = fast(exact_ms) * scale * 1e-3;
    // Per-backend figures weighted by the mix's shares: one figure over
    // both backends would flip between their two latency modes.
    const double misses = static_cast<double>(exact_ms.size() + cfp_ms.size());
    if (misses > 0) {
      f.miss_ms = (fast(exact_ms) * static_cast<double>(exact_ms.size()) +
                   fast(cfp_ms) * static_cast<double>(cfp_ms.size())) /
                  misses * scale;
    }
    f.hit_ms = median(hit);
    f.mutate_ms = median(mutate);
    f.update_ms = median(update);
    f.queue_wait_ms = median(queue);
    f.heap_allocs = median(allocs);
    f.rounds = median(rounds);
    f.messages = median(messages);
    f.wire_bits = median(bits);
    // Every timed cycle completes the same requests, so the fastest
    // kFastShare of cycle times is the highest kFastShare of rates.
    f.requests_per_s = quantile(cycle_rates_, 1.0 - kFastShare) * f.host_slowdown;
    return f;
  }

  /// Median hit through the router minus the same hit sent straight to
  /// the worker that caches it (cluster tiers only).
  double router_hop_ms() {
    Lane& lane = lanes_[0];
    if (!cluster_ || lane.filled.empty()) {
      return 0.0;
    }
    const Filled& target = lane.filled.back();
    const svc::SubmitRequest request = graph_submit(target.graph, true);
    const std::uint64_t fp = congestbc::run_fingerprint(
        target.graph, congestbc::DistributedBcOptions{});
    Lane direct;
    for (const auto& d : tier_.daemons) {
      svc::Client probe;
      probe.connect("127.0.0.1", d->port());
      if (probe.lookup(fp).found) {
        direct.client.connect("127.0.0.1", d->port());
        break;
      }
    }
    std::vector<double> via_router, straight;
    lane.attempted += 40;
    try {
      if (!direct.client.connected()) {
        throw std::runtime_error("no worker holds the hop probe's result");
      }
      for (int i = 0; i < 20; ++i) {
        const Served a = submit_and_wait(ctx_, lane, request, "hop.router", 0, false);
        const Served b = submit_and_wait(ctx_, direct, request, "hop.direct", 0, false);
        if (a.bytes != target.bytes || b.bytes != target.bytes) {
          lane.bad_outputs.push_back("hop probe hit differs from its miss");
        }
        via_router.push_back(a.ms);
        straight.push_back(b.ms);
      }
    } catch (const std::exception& e) {
      ++lane.failed;
      lane.errors.push_back(std::string("router hop probe: ") + e.what());
    }
    lane.submits += direct.submits;
    lane.cache_hits += direct.cache_hits;
    return median(via_router) - median(straight);
  }

  /// Compares STATS with the benchmark's own counts of the same things.
  /// Runs once, at the first quiescent point after the measured cycles:
  /// before the router hop probe, whose LOOKUP frames raise cache_hits.
  const svc::StatsReply& check_stats(RunResult& out) {
    if (stats_checked_) {
      return stats_;
    }
    stats_checked_ = true;
    std::uint64_t submits = 0, hits = 0;
    for (const Lane& lane : lanes_) {
      submits += lane.submits;
      hits += lane.cache_hits;
    }
    auto record = [&](const CheckResult& c) {
      if (!c.ok) out.fail_check(c.detail);
    };
    try {
      stats_ = lanes_[0].client.stats();
      record(check_count("STATS submits", stats_.submits, submits));
      record(check_count("STATS cache_hits", stats_.cache_hits, hits));
      record(check_count("STATS dirty_sources_rerun", stats_.dirty_sources_rerun,
                         expected_dirty_));
    } catch (const std::exception& e) {
      out.fail_check(std::string("STATS failed: ") + e.what());
    }
    return stats_;
  }

  /// Verifies every served output, records the servers' peak memory, and
  /// stops the tier.
  void finish(RunResult& out) {
    check_stats(out);
    for (Lane& lane : lanes_) {
      out.attempted += lane.attempted;
      out.failed += lane.failed;
      for (const std::string& e : lane.errors) {
        std::fprintf(stderr, "failed operation: %s\n", e.c_str());
      }
      for (const std::string& e : lane.bad_outputs) {
        out.fail_check(e);
      }
    }
    auto record = [&](const CheckResult& c) {
      if (!c.ok) out.fail_check(c.detail);
    };
    for (const Lane& lane : lanes_) {
      for (const Filled& f : lane.filled) {
        const svc::ResultBlock block = decode_block(f.bytes);
        if (block.run_status != 0) {
          out.fail_check("served miss did not complete: " + block.detail);
          continue;
        }
        if (!f.exact) {
          record(check_within(block.betweenness, congestbc::brandes_bc(f.graph),
                              1e-9, "served cfp miss vs Brandes"));
          continue;
        }
        const PairSummary pairs = all_pairs_summary(f.graph);
        const double envelope = theorem1_envelope(
            congestbc::SoftFloatFormat::for_graph(f.graph.num_nodes()).mantissa_bits,
            pairs.diameter);
        record(check_within(block.betweenness, congestbc::brandes_bc(f.graph),
                            envelope, "served paper_exact miss vs Brandes"));
        record(check_bc_sum(block.betweenness, pairs.interior_sum, envelope));
        record(check_rounds(block.rounds, f.graph.num_nodes(), pairs.diameter));
      }
    }
    for (const Update& u : updates_) {
      record(check_within(decode_block(u.bytes).betweenness,
                          congestbc::brandes_bc(u.graph), exact_envelope(u.graph),
                          "incremental result vs Brandes"));
    }
    for (const auto& [cycle, leader] : lanes_[0].pair_bytes) {
      for (const auto& [c, follower] : lanes_[1].pair_bytes) {
        if (c == cycle) {
          record(check_bytes_equal(follower, leader, "coalesced duplicate"));
        }
      }
    }
    for (const auto& d : tier_.daemons) {
      peak_rss_ = std::max(peak_rss_, vm_hwm_bytes(d->pid()));
    }
    if (tier_.router) {
      peak_rss_ = std::max(peak_rss_, vm_hwm_bytes(tier_.router->pid()));
    }
    if (!stop_tier()) {
      std::fprintf(stderr, "warning: a server did not exit cleanly\n");
    }
  }

  std::uint64_t peak_rss() const { return peak_rss_; }
  /// When the tier was up and the namespace created.
  double setup_done_s() const { return setup_done_s_; }
  const Filled* first_exact_miss() const {
    for (const Filled& f : lanes_[0].filled) {
      if (f.exact) return &f;
    }
    return nullptr;
  }

 private:
  bool stop_tier() {
    for (Lane& lane : lanes_) lane.client.close();
    bool clean = true;
    if (tier_.router) clean = tier_.router->stop() && clean;
    for (auto& d : tier_.daemons) clean = d->stop() && clean;
    return clean;
  }

  /// One operation: counted as attempted, and as failed if it throws.
  template <typename Fn>
  void attempt(Lane& lane, const char* what, Fn&& fn) {
    ++lane.attempted;
    try {
      fn();
    } catch (const std::exception& e) {
      ++lane.failed;
      lane.errors.push_back(std::string(what) + ": " + e.what());
    }
  }

  void miss(Lane& lane, const Graph& g, bool exact, std::uint64_t id, bool timed,
            bool watch_queue, const std::function<void()>& admitted = {}) {
    const Served s = submit_and_wait(ctx_, lane, graph_submit(g, exact),
                                     exact ? "miss.paper_exact" : "miss.cfp", id,
                                     watch_queue, admitted);
    if (s.disposition != svc::SubmitDisposition::kQueued) {
      lane.bad_outputs.push_back("fresh graph was not executed afresh");
    }
    lane.filled.push_back({g, exact, s.bytes, s.ms, timed});
    if (timed) {
      ++lane.completed;
      lane.allocs.push_back(static_cast<double>(s.allocs));
      if (s.queue_wait_ms >= 0) lane.queue_wait_ms.push_back(s.queue_wait_ms);
    }
  }

  void hit(Lane& lane, std::uint64_t id, bool timed) {
    const std::size_t recent = std::min(lane.filled.size(), kHitWindow);
    const Filled& f =
        lane.filled[lane.filled.size() - 1 - lane.rng.next_below(recent)];
    const Served s =
        submit_and_wait(ctx_, lane, graph_submit(f.graph, f.exact), "hit", id, false);
    if (s.disposition != svc::SubmitDisposition::kCacheHit) {
      lane.bad_outputs.push_back(std::string("repeat submit was not a cache hit: ") +
                                 svc::to_string(s.disposition));
    }
    const CheckResult same = check_bytes_equal(s.bytes, f.bytes, "cache hit");
    if (!same.ok) lane.bad_outputs.push_back(same.detail);
    if (timed) {
      ++lane.completed;
      lane.hit_ms.push_back(s.ms);
      lane.allocs.push_back(static_cast<double>(s.allocs));
    }
  }

  /// One MUTATE batch; returns the version it created.
  std::uint64_t mutate(Lane& lane, bool timed) {
    const std::vector<EdgeChange> batch = twin_.next_batch();
    svc::MutateRequest m;
    m.ns = kNamespace;
    m.base_version = twin_.version();
    std::vector<Edge> changed;
    for (const EdgeChange& c : batch) {
      m.ops.push_back({static_cast<std::uint8_t>(c.insert ? 1 : 2), c.edge.u, c.edge.v});
      changed.push_back(c.edge);
    }
    const std::uint64_t dirty = count_dirty_sources(twin_.graph(), changed);
    svc::MutateReply reply;
    double ms = 0.0;
    {
      ScopedSpan span(ctx_.tracer, "service", "Client::mutate", twin_.version() + 1);
      const double t0 = now_s();
      reply = lane.client.mutate(m);
      ms = (now_s() - t0) * 1e3;
    }
    if (reply.outcome != svc::MutateOutcome::kApplied ||
        reply.version != twin_.version() + 1) {
      throw std::runtime_error(std::string("MUTATE ") + svc::to_string(reply.outcome) +
                               " at version " + std::to_string(reply.version) +
                               ": " + reply.detail);
    }
    twin_.apply(batch);
    expected_dirty_ += dirty;
    if (timed) {
      ++lane.completed;
      lane.mutate_ms.push_back(ms);
    }
    return reply.version;
  }

  void run_update(Lane& lane, std::uint64_t version, bool timed) {
    svc::SubmitRequest request;
    request.stream_ns = kNamespace;
    request.stream_version = version;
    request.incremental = true;
    const Served s =
        submit_and_wait(ctx_, lane, request, "incremental", version, false);
    updates_.push_back({twin_.graph(), s.bytes});
    if (timed) {
      ++lane.completed;
      lane.update_ms.push_back(s.ms);
    }
  }

  void hits(Lane& lane, std::uint64_t id, bool timed) {
    for (std::uint64_t h = 0; h < kHitsPerLane && !lane.filled.empty(); ++h) {
      attempt(lane, "cache hit", [&] { hit(lane, id + h, timed); });
    }
  }

  void run_cycle(Lane& lane, std::size_t index, std::uint64_t cycle, bool timed,
                 bool watch_queue, const std::function<void()>& meet) {
    const std::uint64_t id = cycle * 16 + index * 8;
    const Graph pair = mix_graph(ctx_.seed, 3, cycle, kExactMissNodes);
    if (index == 0) {
      bool met = false;
      attempt(lane, "coalescing leader", [&] {
        miss(lane, pair, true, id, timed, watch_queue, [&] {
          met = true;
          meet();
        });
        lane.pair_bytes.emplace_back(cycle, lane.filled.back().bytes);
      });
      if (!met) meet();
    } else {
      meet();
      attempt(lane, "coalescing follower", [&] {
        const Served s = submit_and_wait(ctx_, lane, graph_submit(pair, true),
                                         "coalesced", id, false);
        lane.pair_bytes.emplace_back(cycle, s.bytes);
        if (timed) ++lane.completed;
      });
    }
    // One lane executes a fresh miss while the other is served hits, then
    // they swap.  No two executions overlap, so no miss queues behind the
    // other lane's: on a one-worker daemon that queueing made the cfp
    // median flip between its 7 ms and 60 ms modes from run to run.
    if (index == 0) {
      attempt(lane, "paper_exact miss", [&] {
        miss(lane, mix_graph(ctx_.seed, 1, cycle, kExactMissNodes), true, id + 1,
             timed, watch_queue);
      });
    } else {
      hits(lane, id + 2, timed);
    }
    meet();
    if (index == 0) {
      hits(lane, id + 2, timed);
      return;
    }
    attempt(lane, "cfp miss", [&] {
      miss(lane, mix_graph(ctx_.seed, 2, cycle, kCfpMissNodes), false, id + 1,
           timed, watch_queue);
    });
    std::uint64_t version = 0;
    attempt(lane, "MUTATE", [&] { version = mutate(lane, timed); });
    attempt(lane, "incremental update", [&] {
      if (version == 0) {
        throw std::runtime_error("no version to update to");
      }
      run_update(lane, version, timed);
    });
  }

  Context& ctx_;
  bool cluster_;
  Tier tier_;
  StreamTwin twin_;
  std::array<Lane, 2> lanes_;
  std::uint64_t cycle_ = 0;
  /// Requests completed per second, one entry per timed cycle.
  std::vector<double> cycle_rates_;
  /// One calibration kernel time per timed cycle, in ms.
  std::optional<Calibration> calibration_;
  std::vector<double> calibration_ms_;
  double setup_done_s_ = 0.0;
  std::uint64_t expected_dirty_ = 0;
  std::uint64_t peak_rss_ = 0;
  bool stats_checked_ = false;
  svc::StatsReply stats_;
  std::vector<Update> updates_;
};

void add_serve_e2e(const ServeFigures& f, double setup_s, std::uint64_t peak,
                   RunResult& out) {
  out.add("setup_s", setup_s, "s");
  out.add("solve_s", f.solve_s, "s");
  out.add("rounds", f.rounds, "rounds");
  out.add("messages", f.messages, "messages");
  out.add("wire_bits", f.wire_bits, "bits");
  out.add("heap_allocs", f.heap_allocs, "allocations");
  out.add("peak_rss_bytes", static_cast<double>(peak), "bytes");
  out.add("requests_per_s", f.requests_per_s, "1/s");
  out.add("miss_ms", f.miss_ms, "ms");
}

void run_serve(Context& ctx, RunResult& out, bool cluster) {
  std::unique_ptr<ServeRun> run;
  try {
    run = std::make_unique<ServeRun>(ctx, cluster, "tier");
  } catch (const std::exception& e) {
    out.fail_check(std::string("tier set-up failed: ") + e.what());
    return;
  }
  if (!ctx.trace) {
    // Set-up: servers up, namespace created.  The namespace's first build
    // and the warm-up cycle are not in it.
    const double setup_s = run->setup_done_s() - ctx.process_start_s;
    run->run_cycles(ctx.seconds, 0, false);
    const ServeFigures f = run->figures(false, out);
    run->finish(out);
    std::printf("%s: miss %.3f ms, %.1f requests/s at reference speed; host "
                "%.3fx slower than reference (calibration %.3f ms); median hit %.3f ms\n",
                ctx.workload.c_str(), f.miss_ms, f.requests_per_s, f.host_slowdown,
                f.calibration_ms, f.hit_ms);
    add_serve_e2e(f, setup_s, run->peak_rss(), out);
    return;
  }

  // Traced: untraced half, then traced half with queue waits watched.
  run->run_cycles(ctx.seconds / 2, 0, false);
  const ServeFigures plain = run->figures(false, out);
  run->clear_samples();
  ctx.tracer.set_enabled(true);
  run->run_cycles(ctx.seconds / 2, 0, true);
  const ServeFigures traced = run->figures(true, out);
  const svc::StatsReply stats = run->check_stats(out);
  ServeLayerFigures layer;
  layer.router_hop_ms = run->router_hop_ms();
  ctx.tracer.set_enabled(false);
  const Filled* probe_miss = run->first_exact_miss();
  const Graph probe_graph = probe_miss != nullptr
                                ? probe_miss->graph
                                : mix_graph(ctx.seed, 1, 0, kExactMissNodes);
  run->finish(out);
  out.add("trace.overhead_pct", (traced.miss_ms / plain.miss_ms - 1.0) * 100.0, "%");

  layer.hit_ms = plain.hit_ms;
  layer.mutate_ms = plain.mutate_ms;
  layer.update_ms = plain.update_ms;
  layer.queue_wait_ms = traced.queue_wait_ms;
  layer.hit_ratio = stats.submits > 0 ? static_cast<double>(stats.cache_hits) /
                                            static_cast<double>(stats.submits)
                                      : 0.0;
  layer.coalesced = static_cast<double>(stats.coalesced);
  layer.worker_utilization = stats.worker_utilization;
  layer.lookups_served = static_cast<double>(stats.lookups_served);
  if (!cluster) {
    const ServeLayerFigures tier = run_cluster_probe(ctx, out);
    layer.router_hop_ms = tier.router_hop_ms;
    layer.lookups_served = tier.lookups_served;
  }

  ProbeInput probe;
  probe.graph = &probe_graph;
  probe.options.backend = congestbc::BackendId::kPaperExact;
  probe.sources = probe_graph.num_nodes();
  probe.generate_s = 0.0;
  {
    const double t0 = now_s();
    (void)mix_graph(ctx.seed, 1, 0, kExactMissNodes);
    (void)mix_graph(ctx.seed, 2, 0, kCfpMissNodes);
    (void)mix_graph(ctx.seed, 3, 0, kExactMissNodes);
    probe.generate_s = now_s() - t0;
  }
  run_module_probe(ctx, probe, out);
  run_sampled_probe(ctx, out);
  add_serve_layer_metrics(layer, out);
}

}  // namespace

ServeLayerFigures run_cluster_probe(Context& ctx, RunResult& out) {
  ServeLayerFigures layer;
  try {
    const bool was = ctx.tracer.enabled();
    ServeRun run(ctx, true, "probe");
    ctx.tracer.set_enabled(true);
    run.run_cycles(0, 4, true);
    const svc::StatsReply stats = run.check_stats(out);
    layer.router_hop_ms = run.router_hop_ms();
    ctx.tracer.set_enabled(was);
    const ServeFigures f = run.figures(true, out);
    run.finish(out);
    layer.hit_ms = f.hit_ms;
    layer.mutate_ms = f.mutate_ms;
    layer.update_ms = f.update_ms;
    layer.queue_wait_ms = f.queue_wait_ms;
    layer.hit_ratio = stats.submits > 0 ? static_cast<double>(stats.cache_hits) /
                                              static_cast<double>(stats.submits)
                                        : 0.0;
    layer.coalesced = static_cast<double>(stats.coalesced);
    layer.worker_utilization = stats.worker_utilization;
    layer.lookups_served = static_cast<double>(stats.lookups_served);
  } catch (const std::exception& e) {
    out.fail_check(std::string("cluster probe failed: ") + e.what());
  }
  return layer;
}

void add_serve_layer_metrics(const ServeLayerFigures& f, RunResult& out) {
  out.add("hit_ms", f.hit_ms, "ms");
  out.add("mutate_ms", f.mutate_ms, "ms");
  out.add("update_ms", f.update_ms, "ms");
  out.add("service.queue_wait_ms", f.queue_wait_ms, "ms");
  out.add("service.hit_ratio", f.hit_ratio, "ratio");
  out.add("service.coalesced", f.coalesced, "count");
  out.add("service.worker_utilization", f.worker_utilization, "ratio");
  out.add("cluster.router_hop_ms", f.router_hop_ms, "ms");
  out.add("cluster.lookups_served", f.lookups_served, "count");
}

void run_serve_mixed(Context& ctx, RunResult& out) { run_serve(ctx, out, false); }

void run_serve_cluster(Context& ctx, RunResult& out) { run_serve(ctx, out, true); }

}  // namespace perfbench
