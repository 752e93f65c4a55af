#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "chain.hpp"
#include "gates.hpp"
#include "loadgen.hpp"
#include "mix.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/serve/client.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/mapped_flow.hpp"
#include "orion/telescope/aggregator.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr double kCheckSeconds = 1.0;  // ingest's served-answers check
constexpr std::size_t kWindowAnswers = 1000;  // fewest answers a window needs
// A window's sender p99 lateness above this (ten times a quiet host's)
// means the host, not the daemon, held the sender up.
constexpr double kLateLimitMs = 0.5;
// A unit (ingest pass, refresh cycle, query window) ran on a quiet host
// when the hypervisor stole at most this share of the machine's CPU time
// during it. The reference host steals 0-1% in quiet stretches and 3-12%
// in busy ones, which move every timing by 10-30%.
constexpr double kStealLimit = 0.02;
constexpr std::size_t kMinQuietUnits = 5;
constexpr int kRungAttempts = 4;  // counted and uncounted, per ladder rung
constexpr double kMaxBacklog = 20000;
constexpr auto kFreshTimeout = std::chrono::seconds(5);
constexpr int kProbeRepeats = 5;
constexpr std::size_t kExecuteSamples = 2000;
constexpr std::size_t kClientProbeCalls = 200;
constexpr double kReconcileTolerance = 0.10;

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

Plan plan_for(const std::string& workload) {
  const std::size_t wide = std::max<std::size_t>(1, nproc() - 1);
  if (workload == "ingest") return {3, wide};
  if (workload == "query") return {2, wide};
  return {2, 1};  // refresh: the live loop ingests at 1 shard
}

void check(Outcome& out, bool ok, const std::string& what) {
  std::cout << "gate " << what << ": " << (ok ? "ok" : "FAILED") << "\n";
  if (!ok) out.correct = false;
}

std::string fixed(double v, int digits = 3) {
  std::ostringstream s;
  s.setf(std::ios::fixed);
  s.precision(digits);
  s << v;
  return s.str();
}

/// Open-loop phases of one run, pooled for the loadgen metrics.
/// Ladder rungs add only their counts: their samples would make the
/// client's own memory depend on how far the ladder got.
struct LoadPool {
  std::vector<double> latency_ms;
  double late_ms_p99 = 0;  // worst phase
  std::uint64_t backlog_max = 0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;

  void add(const LoadResult& r, bool keep_samples = true) {
    if (keep_samples) {
      latency_ms.insert(latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    }
    late_ms_p99 = std::max(late_ms_p99, quantile(r.late_ms, 0.99));
    backlog_max = std::max(backlog_max, r.backlog_max);
    sent += r.sent;
    failed += r.failed();
  }
};

/// The units of a loop that ran on a quiet host, by index: those with
/// steal at most kStealLimit. When fewer than a quarter of the units, or
/// fewer than kMinQuietUnits, were quiet, the figure has to come from a
/// busy host anyway, and every unit is used.
struct Quiet {
  std::vector<std::size_t> units;
  double share = 0;  // quiet units / all units
};

Quiet quiet_units(const std::vector<double>& steal) {
  Quiet q;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= kStealLimit) q.units.push_back(i);
  }
  q.share = steal.empty() ? 0.0
                          : static_cast<double>(q.units.size()) /
                                static_cast<double>(steal.size());
  if (q.units.size() < kMinQuietUnits || 4 * q.units.size() < steal.size()) {
    q.units.resize(steal.size());
    for (std::size_t i = 0; i < steal.size(); ++i) q.units[i] = i;
  }
  return q;
}

template <typename T>
std::vector<T> pick(const std::vector<T>& values, const std::vector<std::size_t>& units) {
  std::vector<T> out;
  for (const std::size_t i : units) out.push_back(values[i]);
  return out;
}

/// A phase's latency quantile, window by window: each kWindowSeconds
/// slice of the schedule with at least kWindowAnswers answers gives its
/// own q-quantile, and the phase's figure is their median, so a stretch
/// of stalls shorter than half the phase cannot decide it. A window is
/// quiet when the sender itself ran on time (p99 lateness at most
/// kLateLimitMs) and the hypervisor stole at most kStealLimit; the other
/// windows measured the host rather than the daemon and are left out
/// while any quiet window remains.
struct Windowed {
  double value = 0;
  std::size_t windows = 0;  // windows with enough answers
  std::size_t quiet = 0;    // of those, quiet windows
};

Windowed windowed_quantile(const LoadResult& r, double q) {
  const auto window_of = [](double due_s) {
    return static_cast<std::int64_t>(due_s / kWindowSeconds);
  };
  std::map<std::int64_t, std::vector<double>> latency, late;
  for (std::size_t i = 0; i < r.latency_ms.size(); ++i) {
    latency[window_of(r.due_s[i])].push_back(r.latency_ms[i]);
  }
  for (std::size_t i = 0; i < r.late_ms.size(); ++i) {
    late[window_of(r.send_due_s[i])].push_back(r.late_ms[i]);
  }
  std::vector<double> all, quiet;
  for (const auto& [w, lat] : latency) {
    if (lat.size() < kWindowAnswers) continue;
    const double v = quantile(lat, q);
    all.push_back(v);
    const auto k = static_cast<std::size_t>(w);
    const bool calm = k < r.window_steal.size() && r.window_steal[k] <= kStealLimit;
    if (calm && quantile(late[w], 0.99) <= kLateLimitMs) quiet.push_back(v);
  }
  if (all.empty()) return {quantile(r.latency_ms, q), 0, 0};
  return {median(quiet.empty() ? all : quiet), all.size(), quiet.size()};
}

/// Byte-identity gate over every response of the run; failures count.
void verify_served(Outcome& out, const ResponseLog& log, const QueryMix& mix,
                   const BackendFor& backend_for, const LoadPool& pool) {
  const VerifyReport v = verify_responses(log, mix, backend_for);
  out.attempted += pool.sent;
  out.failed += pool.failed + v.failed();
  std::cout << "served: " << pool.sent << " sent, " << v.responses
            << " answered, " << pool.failed << " not Ok or unanswered, "
            << v.mismatched << " byte mismatches, " << v.unknown_generation
            << " unknown generations\n";
  check(out, v.failed() == 0,
        "responses byte-identical to execute_query_bytes on their generation" +
            (v.first_problem.empty() ? std::string() : " (" + v.first_problem + ")"));
}

/// The mean of the 10%-trimmed sample: robust to a few disturbed units.
double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 10;
  double kept = 0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) kept += values[i];
  return kept / static_cast<double>(values.size() - 2 * cut);
}

/// The mean over groups of each group's trimmed mean: the time of a
/// typical unit when groups differ in size (refresh days differ in
/// packets). An empty `group` is one group.
double per_group_trimmed(const std::vector<double>& v, const std::vector<std::size_t>& group) {
  std::map<std::size_t, std::vector<double>> by_group;
  for (std::size_t i = 0; i < v.size(); ++i) {
    by_group[group.empty() ? 0 : group[i]].push_back(v[i]);
  }
  double sum = 0;
  for (const auto& [g, values] : by_group) sum += trimmed_mean(values);
  return by_group.empty() ? 0.0 : sum / static_cast<double>(by_group.size());
}

/// How a traced half compares with the untraced half of the same loop.
/// The layer spans' self times, without the root's own time, must add up
/// to the untraced wall time per unit (per_group_trimmed of both halves;
/// `group_of` maps a traced root's trace id to the group of its unit);
/// the root's own time is what no layer span covers and is reported as
/// unattributed.
void reconcile(Outcome& out, const std::vector<trace::Record>& records,
               const std::string& root, const std::vector<double>& untraced_units,
               const std::vector<std::size_t>& untraced_groups,
               const std::function<std::size_t(std::uint64_t)>& group_of,
               double overhead) {
  const trace::SelfTimes st = trace::self_times(records, root);
  const double untraced_per_unit = per_group_trimmed(untraced_units, untraced_groups);
  if (st.roots == 0 || untraced_per_unit <= 0) {
    check(out, false, "reconcile " + root + ": traced and untraced units ran");
    return;
  }
  const double units = static_cast<double>(st.roots);
  double unattributed = 0;
  for (const auto& [name, s] : st.self) {
    std::cout << "selftime " << root << " " << name << " "
              << fixed(s / units, 6) << " s/unit ("
              << fixed(100.0 * s / st.root_seconds, 1) << "%)"
              << (name == root ? " unattributed" : "") << "\n";
    if (name == root) unattributed = s;
  }
  std::vector<double> covered;
  std::vector<std::size_t> groups;
  for (const auto& [trace_id, seconds] : st.covered) {
    covered.push_back(seconds);
    groups.push_back(group_of(trace_id));
  }
  const double traced_per_unit = per_group_trimmed(covered, groups);
  const double ratio = traced_per_unit / untraced_per_unit;
  std::cout << "reconcile " << root << ": layer self times sum to "
            << fixed(traced_per_unit, 6) << " s/unit vs untraced wall "
            << fixed(untraced_per_unit, 6) << " s/unit, ratio " << fixed(ratio, 4)
            << "; unattributed " << fixed(100.0 * unattributed / st.root_seconds, 2)
            << "% of traced units; tracing overhead " << fixed(100.0 * overhead, 2)
            << "%\n";
  check(out, std::abs(ratio - 1.0) <= kReconcileTolerance,
        "layer self times of " + root + " within " +
            fixed(100.0 * kReconcileTolerance, 0) + "% of the untraced wall time");
  out.per_layer.set("trace.reconcile_ratio", ratio, "ratio");
  out.per_layer.set("trace.unattributed_share", unattributed / st.root_seconds, "ratio");
  out.per_layer.set("trace.overhead", overhead, "ratio");
}

// ---------------------------------------------------------------- probes

/// Traced per-layer probes, the same on every workload: each module's
/// public functions called directly on the chain's inputs.
void probe_layers(Outcome& out, Chain& chain, const QueryMix& mix,
                  const serve::StoreSnapshot& live, const std::string& workdir) {
  Report& L = out.per_layer;
  const auto batches = all_batches(chain.stream());

  // pipeline: the whole stream at the workload's shard count and at 1,
  // alternating after one discarded warm-up pass, so neither side gets
  // the first-touch page faults or a quieter stretch of the host.
  std::vector<double> wide_s, one_s, observe_s, finish_s, call_us;
  telescope::PipelineHealth health;
  (void)run_pass(chain.scenario(), chain.pipeline_config(chain.plan().shards), batches);
  for (int i = 0; i < kProbeRepeats; ++i) {
    Pass p;
    {
      trace::Span root("probe.pass", 1000 + static_cast<std::uint64_t>(i));
      p = run_pass(chain.scenario(), chain.pipeline_config(chain.plan().shards), batches);
    }
    wide_s.push_back(p.seconds);
    observe_s.push_back(p.observe_s);
    finish_s.push_back(p.finish_s);
    call_us.insert(call_us.end(), p.observe_us.begin(), p.observe_us.end());
    health = p.result->health;
    trace::Span root("probe.pass_1shard", 2000 + static_cast<std::uint64_t>(i));
    one_s.push_back(run_pass(chain.scenario(), chain.pipeline_config(1), batches).seconds);
  }
  L.set("pipeline.observe_batch_s", median(observe_s), "s");
  L.set("pipeline.observe_batch_us_p99", quantile(call_us, 0.99), "us");
  L.set("pipeline.finish_s", median(finish_s), "s");
  L.set("pipeline.delivered", static_cast<double>(health.delivered), "count");
  L.set("pipeline.stalls", static_cast<double>(health.stalls), "count");
  L.set("pipeline.dropped", static_cast<double>(health.dropped()), "count");
  L.set("pipeline.speedup_vs_1shard", median(one_s) / median(wide_s), "x");
  std::cout << "pipeline: " << chain.plan().shards << " shard(s) "
            << fixed(median(wide_s), 4) << " s/pass vs 1 shard "
            << fixed(median(one_s), 4) << " s/pass (base: 1 shard)\n";

  // telescope + detect: the single-thread baseline on the same stream.
  const telescope::ParallelConfig config = chain.pipeline_config(1);
  std::vector<telescope::DarknetEvent> events;
  {
    telescope::EventAggregator aggregator(
        chain.scenario().darknet(), config.aggregator,
        [&](const telescope::DarknetEvent& e) { events.push_back(e); });
    const auto t0 = Clock::now();
    for (const pkt::PacketBatch* b : batches) {
      trace::Span span("telescope.observe_batch");
      aggregator.observe_batch(*b);
    }
    aggregator.finish();
    L.set("telescope.aggregate_s", seconds_since(t0), "s");
  }
  L.set("telescope.events", static_cast<double>(events.size()), "count");
  const telescope::ParallelResult& ref = chain.reference();
  check(out, events.size() == ref.dataset.event_count(),
        "serial aggregator event count equals the pipeline's");
  const telescope::EventDataset serial(std::move(events),
                                       chain.scenario().darknet().total_addresses());
  {
    detect::StreamingDetector detector(config.detector,
                                       chain.scenario().darknet().total_addresses());
    const auto t0 = Clock::now();
    for (const telescope::DarknetEvent& e : serial.events()) {
      trace::Span span("detect.observe");
      (void)detector.observe(e);
    }
    (void)detector.finish();
    L.set("detect.streaming_s", seconds_since(t0), "s");
    bool same = true;
    for (std::size_t d = 0; d < 3; ++d) {
      same = same && detector.ips(static_cast<detect::Definition>(d)) == ref.ips[d];
    }
    check(out, same, "serial StreamingDetector D1/D2/D3 equal the pipeline's");
  }
  L.set("detect.ah_d1", static_cast<double>(ref.ips[0].size()), "count");
  L.set("detect.ah_d2", static_cast<double>(ref.ips[1].size()), "count");
  L.set("detect.ah_d3", static_cast<double>(ref.ips[2].size()), "count");

  // store: publish, map and verify the reference generation.
  const std::string dir = workdir + "/probe-archive";
  std::filesystem::remove_all(dir);
  std::vector<double> publish_ms, ode2_ms, fde1_ms, map_ms, verify_ms,
      prebuild_ms, load_ms;
  Published pub;
  {
    store::ArchiveDir archive(dir);
    for (int i = 0; i < kProbeRepeats; ++i) {
      pub = publish_generation(archive, ref.dataset, chain.flows());
      publish_ms.push_back(pub.publish_ms);
      ode2_ms.push_back(pub.ode2_write_ms);
      fde1_ms.push_back(pub.fde1_write_ms);
    }
  }
  L.set("store.ode2_write_ms", median(ode2_ms), "ms");
  L.set("store.fde1_write_ms", median(fde1_ms), "ms");
  L.set("store.publish_ms_p50", median(publish_ms), "ms");
  L.set("store.bytes_per_event",
        static_cast<double>(pub.events.bytes) /
            static_cast<double>(std::max<std::size_t>(1, ref.dataset.event_count())),
        "B");
  bool intact = true;
  std::size_t flow_rows = 0;
  for (int i = 0; i < kProbeRepeats; ++i) {
    const store::ArchiveDir archive(dir);
    auto t0 = Clock::now();
    std::optional<store::MappedFlowStore> flows;
    std::optional<store::MappedEventStore> stored;
    {
      trace::Span span("store.open_mapped");
      flows.emplace(store::open_mapped_flows(archive, "flows"));
      stored.emplace(store::open_mapped_events(archive, "events"));
    }
    map_ms.push_back(1e3 * seconds_since(t0));
    t0 = Clock::now();
    {
      trace::Span span("store.verify_blocks");
      intact = intact && flows->verify_blocks() == flows->block_count() &&
               stored->verify_blocks() == stored->block_count();
    }
    verify_ms.push_back(1e3 * seconds_since(t0));
    flow_rows = flows->flow_count();
    impact::FlowImpactAnalyzer analyzer(&*flows);
    t0 = Clock::now();
    {
      trace::Span span("impact.prebuild_indexes");
      analyzer.prebuild_indexes();
    }
    prebuild_ms.push_back(1e3 * seconds_since(t0));
    if (i + 1 == kProbeRepeats) {
      std::vector<double> query_us;
      for (const serve::QueryRequest& r : mix.requests) {
        if (r.kind != serve::QueryKind::FlowImpact) continue;
        const impact::SourceSet sources(r.sources);
        for (int k = 0; k < 20; ++k) {
          trace::Span span("impact.query");
          const auto q0 = Clock::now();
          const impact::RouterDayReport report = analyzer.query(r.router, r.day, sources);
          query_us.push_back(1e6 * seconds_since(q0));
          (void)report;
        }
      }
      L.set("impact.query_us_p50", median(query_us), "us");
    }
  }
  check(out, intact, "published ODE2/FDE1 blocks pass their CRCs");
  L.set("store.bytes_per_flow",
        static_cast<double>(pub.flows.bytes) /
            static_cast<double>(std::max<std::size_t>(1, flow_rows)),
        "B");
  L.set("store.map_ms", median(map_ms), "ms");
  L.set("store.verify_ms", median(verify_ms), "ms");
  L.set("impact.prebuild_ms", median(prebuild_ms), "ms");
  L.set("impact.probes_per_query", mix.mean_probe_sources(), "count");
  for (int i = 0; i < kProbeRepeats; ++i) {
    const auto t0 = Clock::now();
    const auto snap = load_live_snapshot(dir);
    load_ms.push_back(1e3 * seconds_since(t0));
  }
  L.set("serve.load_snapshot_ms", median(load_ms), "ms");

  // serve: the engine and the codec called directly on the live snapshot.
  Rng rng(chain.seed() ^ 0x70726f6265ull);
  std::vector<double> exec_us, codec_us;
  const serve::EngineBackend backend = live.backend();
  for (std::size_t i = 0; i < kExecuteSamples; ++i) {
    const serve::QueryRequest& r = mix.requests[mix.pick(rng.uniform())];
    std::vector<std::uint8_t> bytes;
    {
      trace::Span span("serve.execute_query_bytes");
      const auto t0 = Clock::now();
      bytes = serve::execute_query_bytes(r, backend);
      exec_us.push_back(1e6 * seconds_since(t0));
    }
    const auto t0 = Clock::now();
    std::vector<std::uint8_t> encoded;
    {
      trace::Span span("serve.encode_request");
      encoded = serve::encode_request(r);
    }
    serve::QueryResponse decoded;
    std::string error;
    {
      trace::Span span("serve.decode_response");
      (void)serve::decode_response(bytes, decoded, error);
    }
    codec_us.push_back(1e6 * seconds_since(t0));
  }
  L.set("serve.execute_us_p50", median(exec_us), "us");
  L.set("serve.execute_us_p99", quantile(exec_us, 0.99), "us");
  L.set("serve.codec_us", mean(codec_us), "us");

  // Closed-loop calls through serve::Client: send / recv_raw spans.
  serve::Client client;
  client.connect("127.0.0.1", chain.daemon().port());
  for (std::size_t i = 0; i < kClientProbeCalls; ++i) {
    const serve::QueryRequest& r = mix.requests[mix.pick(rng.uniform())];
    trace::Span call("serve.client_call", 3000 + i);
    {
      trace::Span span("serve.client_send");
      client.send(r);
    }
    trace::Span span("serve.client_recv_raw");
    (void)client.recv_raw();
  }
  client.close();
}

/// Per-layer metrics every workload reports from its own phases.
void workload_layers(Outcome& out, Chain& chain, const LoadPool& pool,
                     std::uint64_t publishes_after_start) {
  Report& L = out.per_layer;
  L.set("scangen.gen_s", chain.times().scangen_s, "s");
  L.set("flowsim.gen_s", chain.times().flowsim_s, "s");
  const serve::ServeStats stats = chain.daemon().stats();
  L.set("serve.shared_ratio",
        stats.requests == 0 ? 0.0
                            : static_cast<double>(stats.shared_computations) /
                                  static_cast<double>(stats.requests),
        "ratio");
  L.set("serve.overload_rejections", static_cast<double>(stats.overload_rejections), "count");
  L.set("serve.bad_requests", static_cast<double>(stats.bad_requests), "count");
  L.set("serve.swaps_per_publish",
        static_cast<double>(stats.generation_swaps) /
            static_cast<double>(std::max<std::uint64_t>(1, publishes_after_start)),
        "ratio");
  L.set("loadgen.late_ms_p99", pool.late_ms_p99, "ms");
  L.set("loadgen.backlog_max", static_cast<double>(pool.backlog_max), "count");
  L.set("loadgen.query_p50_ms", median(pool.latency_ms), "ms");
  L.set("loadgen.query_p99_ms", quantile(pool.latency_ms, 0.99), "ms");
  if (const Metric* exec = L.find("serve.execute_us_p50")) {
    L.set("serve.wire_us_p50", 1e3 * median(pool.latency_ms) - exec->value, "us");
  }
}

LoadOptions load_options(double rate, double seconds, std::uint64_t seed) {
  LoadOptions o;
  o.rate = rate;
  o.seconds = seconds;
  o.connections = nproc();
  o.seed = seed;
  return o;
}

// ---------------------------------------------------------------- ingest

struct IngestRun {
  std::vector<double> pass_s;
  std::vector<double> steal;  // of each pass
  std::uint64_t packets = 0;
  std::uint64_t undelivered = 0;
  std::uint64_t mismatched = 0;  // packets of passes whose digest differed
};

/// Passes for `seconds`, all into [1]. With `alternate` (the traced run)
/// passes alternate between untraced [0] and traced [1], so both see the
/// same host conditions.
std::array<IngestRun, 2> ingest_passes(const Chain& chain, double seconds,
                                       std::uint64_t expect, bool alternate) {
  const auto batches = all_batches(chain.stream());
  const telescope::ParallelConfig config = chain.pipeline_config(chain.plan().shards);
  std::array<IngestRun, 2> runs;
  std::uint64_t pass_id = 0;
  const auto t0 = Clock::now();
  do {
    const bool traced = !alternate || pass_id % 2 == 1;
    if (alternate) trace::set_enabled(traced);
    IngestRun& run = runs[traced ? 1 : 0];
    Pass p;
    const CpuTicks ticks = cpu_ticks();
    {
      trace::Span root("ingest.pass", ++pass_id);
      p = run_pass(chain.scenario(), config, batches);
    }
    run.steal.push_back(steal_share(ticks, cpu_ticks()));
    run.pass_s.push_back(p.seconds);
    run.packets += p.packets;
    const telescope::PipelineHealth& h = p.result->health;
    if (!h.consistent() || h.delivered != p.packets) {
      run.undelivered += p.packets - std::min(p.packets, h.delivered);
    }
    if (result_digest(*p.result) != expect) run.mismatched += p.packets;
  } while (seconds_since(t0) < seconds || pass_id < 6);
  if (alternate) trace::set_enabled(true);
  return runs;
}

double total(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

void run_ingest(Outcome& out, const Options& opt, Chain& chain,
                const QueryMix& mix, const BackendFor& backend_for) {
  // Gate: 1 shard and the workload's shard count digest identically.
  const Pass one = run_pass(chain.scenario(), chain.pipeline_config(1),
                            all_batches(chain.stream()));
  const std::uint64_t expect = result_digest(*one.result);
  check(out, expect == result_digest(chain.reference()),
        "dataset + D1/D2/D3 digest identical at 1 and " +
            std::to_string(chain.plan().shards) + " shards");

  const std::array<IngestRun, 2> runs = ingest_passes(chain, opt.seconds, expect, opt.trace);
  const IngestRun& timed = runs[1];
  const IngestRun& untraced = runs[0];
  std::uint64_t mismatched = 0;
  for (const IngestRun& r : runs) {
    out.attempted += r.packets;
    out.failed += r.undelivered + r.mismatched;
    mismatched += r.mismatched;
  }
  check(out, mismatched == 0, "every timed pass digests like the 1-shard pass");
  // Packets of one pass over its median time, over the quiet passes: one
  // disturbed pass moves neither the rate nor the p50.
  const Quiet quiet = quiet_units(timed.steal);
  const std::vector<double> pass_s = pick(timed.pass_s, quiet.units);
  const double rate = static_cast<double>(chain.stream().packets) / median(pass_s);
  const Tail tail = tail_of(pass_s);
  out.end_to_end.set("rate_per_s", rate, "1/s");
  out.end_to_end.set("p50_ms", 1e3 * median(pass_s), "ms");
  out.end_to_end.set("tail_ms", 1e3 * tail.value, "ms");
  out.detail.set("ingest_mpps", rate / 1e6, "Mpps");
  out.detail.set("quiet_share", quiet.share, "ratio");
  std::cout << "ingest: " << timed.pass_s.size() << " passes of "
            << chain.stream().packets << " packets at " << chain.plan().shards
            << " shards, " << pass_s.size() << " used (" << fixed(100.0 * quiet.share, 0)
            << "% quiet); time to lists p50 " << fixed(1e3 * median(pass_s))
            << " ms, tail p" << fixed(tail.percentile, 1) << " "
            << fixed(1e3 * tail.value) << " ms (n=" << tail.samples << ")\n";

  // Served answers for the lists just built: a short open-loop check.
  ResponseLog log;
  LoadPool pool;
  pool.add(run_open_loop(chain.daemon().port(), mix,
                         load_options(kBackgroundRate, kCheckSeconds, opt.seed), log));
  verify_served(out, log, mix, backend_for, pool);

  if (opt.trace) {
    const double untraced_rate =
        static_cast<double>(chain.stream().packets) / median(untraced.pass_s);
    out.detail.set("ingest_mpps_untraced", untraced_rate / 1e6, "Mpps");
    reconcile(out, trace::collect(), "ingest.pass", untraced.pass_s, {},
              [](std::uint64_t) { return std::size_t{0}; }, untraced_rate / rate - 1.0);
  }
  workload_layers(out, chain, pool, 0);
}

// ---------------------------------------------------------------- query

/// A rung meets the limit when its windowed p99 does, nothing failed,
/// and the backlog did not grow past what the limit allows.
bool rung_passes(const LoadResult& r, const Windowed& p99) {
  const double allowed = std::max(8.0, r.rate * kQueryLimitMs / 1e3);
  return !r.aborted && r.failed() == 0 && p99.value <= kQueryLimitMs &&
         static_cast<double>(r.backlog_end) <= allowed;
}

void run_query(Outcome& out, const Options& opt, Chain& chain,
               const QueryMix& mix, const BackendFor& backend_for) {
  const std::uint16_t port = chain.daemon().port();
  ResponseLog log;
  LoadPool pool;
  LoadResult ref;
  if (opt.trace) {
    trace::set_enabled(false);
    const LoadResult plain =
        run_open_loop(port, mix, load_options(kReferenceRate, opt.seconds / 2, opt.seed), log);
    pool.add(plain);
    trace::set_enabled(true);
    ref = run_open_loop(port, mix,
                        load_options(kReferenceRate, opt.seconds / 2, opt.seed + 1), log);
    pool.add(ref);
    reconcile(out, trace::collect(), "loadgen.window", {plain.elapsed_s}, {},
              [](std::uint64_t) { return std::size_t{0}; },
              windowed_quantile(ref, 0.5).value / windowed_quantile(plain, 0.5).value - 1.0);
  } else {
    ref = run_open_loop(port, mix,
                        load_options(kReferenceRate, 0.5 * opt.seconds, opt.seed), log);
    pool.add(ref);
  }
  const Windowed p50 = windowed_quantile(ref, 0.50);
  const Windowed p90 = windowed_quantile(ref, 0.90);
  out.end_to_end.set("p50_ms", p50.value, "ms");
  out.end_to_end.set("tail_ms", p90.value, "ms");
  out.detail.set("query_window_p50_ms", p50.value, "ms");
  out.detail.set("query_window_p90_ms", p90.value, "ms");
  out.detail.set("query_windows_quiet",
                 static_cast<double>(p90.quiet) /
                     static_cast<double>(std::max<std::size_t>(1, p90.windows)),
                 "ratio");
  out.detail.set("query_p50_ms", median(ref.latency_ms), "ms");
  out.detail.set("query_p90_ms", quantile(ref.latency_ms, 0.90), "ms");
  out.detail.set("query_p99_ms", quantile(ref.latency_ms, 0.99), "ms");
  std::cout << "query: reference rate " << kReferenceRate << "/s, "
            << ref.latency_ms.size() << " answers, p50 "
            << fixed(median(ref.latency_ms)) << " ms, p90 "
            << fixed(quantile(ref.latency_ms, 0.90)) << " ms, p99 "
            << fixed(quantile(ref.latency_ms, 0.99)) << " ms; median of "
            << p90.quiet << " quiet " << kWindowSeconds << "-s windows (of "
            << p90.windows << "): p50 " << fixed(p50.value) << " ms, p90 "
            << fixed(p90.value) << " ms\n";

  if (!opt.trace) {
    const double rung_s = 0.5 * opt.seconds / static_cast<double>(std::size(kQueryLadder));
    double best = 0;
    std::uint64_t rung = 0;
    for (const double rate : kQueryLadder) {
      // A rung gets a second attempt, so one scheduling hiccup on a
      // shared host does not end the ladder; past capacity both miss. A
      // missed attempt without a single quiet window measured the host,
      // not the daemon, and does not count, up to kRungAttempts in all.
      bool ok = false;
      int counted = 0;
      for (int attempt = 0; attempt < kRungAttempts && counted < 2 && !ok; ++attempt) {
        LoadOptions o = load_options(rate, rung_s, opt.seed + 100 + rung++);
        // Stop feeding a rung once 100 ms of requests queue up (at most
        // kMaxBacklog, which the daemon still drains quickly).
        o.abort_backlog = static_cast<std::uint64_t>(
            std::clamp(rate * 0.1, 64.0, kMaxBacklog));
        const LoadResult r = run_open_loop(port, mix, o, log);
        pool.add(r, false);
        const Windowed p99 = windowed_quantile(r, 0.99);
        ok = rung_passes(r, p99);
        const bool counts = ok || p99.quiet > 0;
        if (counts) ++counted;
        std::cout << "ladder " << rate << "/s attempt " << attempt + 1 << ": achieved "
                  << fixed(r.achieved_qps(), 1) << "/s window p99 " << fixed(p99.value)
                  << " ms (" << p99.quiet << " of " << p99.windows
                  << " windows quiet), p99 "
                  << fixed(quantile(r.latency_ms, 0.99)) << " ms, sender late p99 "
                  << fixed(quantile(r.late_ms, 0.99)) << " ms, backlog end "
                  << r.backlog_end << " max " << r.backlog_max
                  << (r.aborted ? " (aborted)" : "")
                  << (ok ? " -> meets limit" : " -> misses limit")
                  << (counts ? "" : " (no quiet window: not counted)") << "\n";
        if (ok) best = r.achieved_qps();
      }
      if (!ok) break;
    }
    out.end_to_end.set("rate_per_s", best, "1/s");
    out.detail.set("query_max_qps", best, "1/s");
  }
  verify_served(out, log, mix, backend_for, pool);
  workload_layers(out, chain, pool, 0);
}

// ---------------------------------------------------------------- refresh

struct CycleRun {
  std::vector<double> cycle_s;
  std::vector<std::size_t> day;  // of each cycle
  std::vector<double> steal;     // of each cycle
  std::vector<double> fresh_ms;
  std::vector<double> fresh_steal;  // of the cycle of each fresh_ms
  std::vector<double> pass_s;
  std::uint64_t packets = 0;
  std::uint64_t undelivered = 0;
  std::uint64_t unobserved = 0;
  std::uint64_t cycles = 0;
};

struct CycleLedger {
  std::map<std::uint64_t, std::size_t> day_of_generation;
  std::map<std::size_t, std::uint32_t> events_crc;  // first publication per day
  std::map<std::size_t, telescope::EventDataset> dataset;
  std::uint64_t crc_mismatches = 0;
  std::uint64_t publishes = 0;
};

/// Cycles for `seconds`, all into [1]. With `alternate` (the traced run)
/// cycles alternate between untraced [0] and traced [1], shifted by one
/// every round of days so that each day runs both ways.
std::array<CycleRun, 2> refresh_cycles(Chain& chain, store::ArchiveDir& archive,
                                       GenerationWatch& watch, double seconds,
                                       bool alternate, CycleLedger& ledger) {
  const telescope::ParallelConfig config = chain.pipeline_config(chain.plan().shards);
  const std::size_t days = chain.stream().days.size();
  std::array<CycleRun, 2> runs;
  std::uint64_t cycle_id = 0;
  const auto t0 = Clock::now();
  do {
    const std::size_t day = static_cast<std::size_t>(cycle_id % days);
    const bool traced = !alternate || (cycle_id + cycle_id / days) % 2 == 1;
    if (alternate) trace::set_enabled(traced);
    CycleRun& run = runs[traced ? 1 : 0];
    trace::Span root("refresh.cycle", ++cycle_id);
    const CpuTicks ticks = cpu_ticks();
    const auto c0 = Clock::now();
    Pass p = run_pass(chain.scenario(), config, day_batches(chain.stream(), day));
    const Published pub = publish_generation(archive, p.result->dataset, chain.flows());
    {
      trace::Span span("refresh.await_generation");
      const auto deadline = Clock::now() + kFreshTimeout;
      while (watch.max_seen() < pub.generation && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    const auto seen = watch.first_seen(pub.generation);
    run.cycle_s.push_back(seconds_since(c0));
    run.day.push_back(day);
    run.steal.push_back(steal_share(ticks, cpu_ticks()));
    if (seen) {
      run.fresh_ms.push_back(1e3 * seconds_between(p.last_observe_end, *seen));
      run.fresh_steal.push_back(run.steal.back());
    } else {
      ++run.unobserved;
    }
    run.pass_s.push_back(p.seconds);
    run.packets += p.packets;
    const telescope::PipelineHealth& h = p.result->health;
    if (!h.consistent() || h.delivered != p.packets) {
      run.undelivered += p.packets - std::min(p.packets, h.delivered);
    }
    ++run.cycles;
    ++ledger.publishes;
    ledger.day_of_generation[pub.generation] = day;
    const auto known = ledger.events_crc.find(day);
    if (known == ledger.events_crc.end()) {
      ledger.events_crc[day] = pub.events.crc;
      ledger.dataset.emplace(day, std::move(p.result->dataset));
    } else if (known->second != pub.events.crc) {
      ++ledger.crc_mismatches;
    }
    if (pub.flows.crc != chain.initial().flows.crc) ++ledger.crc_mismatches;
  } while (seconds_since(t0) < seconds || cycle_id < 4 * days);
  if (alternate) trace::set_enabled(true);
  return runs;
}

void run_refresh(Outcome& out, const Options& opt, Chain& chain,
                 const QueryMix& mix,
                 const std::shared_ptr<const serve::StoreSnapshot>& live) {
  store::ArchiveDir archive(chain.archive_dir());
  GenerationWatch watch;
  std::atomic<bool> stop{false};
  ResponseLog log;
  LoadResult background;
  std::string sender_error;
  LoadOptions o = load_options(kBackgroundRate, 0, opt.seed);
  o.stop = &stop;
  o.watch = &watch;
  std::thread sender([&] {
    try {
      background = run_open_loop(chain.daemon().port(), mix, o, log);
    } catch (const std::exception& e) {
      sender_error = e.what();
    }
  });
  // Start cycling once the stream is answered from the initial generation.
  const auto deadline = Clock::now() + kFreshTimeout;
  while (watch.max_seen() < chain.initial().generation && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  CycleLedger ledger;
  const std::array<CycleRun, 2> runs =
      refresh_cycles(chain, archive, watch, opt.seconds, opt.trace, ledger);
  const CycleRun& timed = runs[1];
  const CycleRun& untraced = runs[0];
  stop.store(true, std::memory_order_release);
  sender.join();
  check(out, sender_error.empty(), "background query stream ran" +
                                       (sender_error.empty() ? "" : " (" + sender_error + ")"));

  for (const CycleRun& r : runs) {
    out.attempted += r.cycles + r.packets;
    out.failed += r.unobserved + r.undelivered;
  }
  check(out, timed.unobserved == 0 && untraced.unobserved == 0,
        "every published generation was served within " +
            std::to_string(kFreshTimeout.count()) + " s");
  check(out, ledger.crc_mismatches == 0,
        "republished days and flows are byte-identical (manifest CRCs)");

  // Snapshots for the byte-identity gate: each distinct day republished
  // on the side; a generation's content is its day's (CRC-checked above).
  std::map<std::size_t, std::shared_ptr<const serve::StoreSnapshot>> by_day;
  for (const auto& [day, dataset] : ledger.dataset) {
    const std::string dir = opt.workdir + "/verify-day" + std::to_string(day);
    std::filesystem::remove_all(dir);
    store::ArchiveDir side(dir);
    const Published pub = publish_generation(side, dataset, chain.flows());
    check(out, pub.events.crc == ledger.events_crc[day],
          "day " + std::to_string(day) + " republishes to the same bytes");
    by_day[day] = load_live_snapshot(dir);
  }
  const std::uint64_t initial = chain.initial().generation;
  const BackendFor backend_for =
      [&](std::uint64_t g) -> std::optional<serve::EngineBackend> {
    if (g == initial) return live->backend();
    const auto it = ledger.day_of_generation.find(g);
    if (it == ledger.day_of_generation.end()) return std::nullopt;
    serve::EngineBackend b = by_day.at(it->second)->backend();
    b.generation = g;
    return b;
  };
  LoadPool pool;
  pool.add(background);
  verify_served(out, log, mix, backend_for, pool);

  // Freshness and the rate over the quiet cycles. The rate of a typical
  // day: each day's packets over its median cycle, averaged over the days
  // (days differ in packets).
  const std::vector<double> fresh_ms =
      pick(timed.fresh_ms, quiet_units(timed.fresh_steal).units);
  const Quiet quiet = quiet_units(timed.steal);
  std::map<std::size_t, std::vector<double>> cycles_of_day;
  for (const std::size_t i : quiet.units) {
    cycles_of_day[timed.day[i]].push_back(timed.cycle_s[i]);
  }
  double rate = 0;
  for (const auto& [day, cycles] : cycles_of_day) {
    std::uint64_t packets = 0;
    for (const pkt::PacketBatch& b : chain.stream().days[day]) packets += b.size();
    rate += static_cast<double>(packets) / median(cycles);
  }
  rate /= static_cast<double>(std::max<std::size_t>(1, cycles_of_day.size()));
  const Tail fresh = tail_of(fresh_ms);
  out.end_to_end.set("rate_per_s", rate, "1/s");
  out.end_to_end.set("p50_ms", median(fresh_ms), "ms");
  out.end_to_end.set("tail_ms", fresh.value, "ms");
  out.detail.set("fresh_p50_ms", median(fresh_ms), "ms");
  out.detail.set("fresh_tail_ms", fresh.value, "ms");
  out.detail.set("fresh_tail_percentile", fresh.percentile, "%");
  out.detail.set("fresh_samples", static_cast<double>(fresh.samples), "count");
  out.detail.set("quiet_share", quiet.share, "ratio");
  out.detail.set("query_p50_ms", median(background.latency_ms), "ms");
  out.detail.set("query_p99_ms", quantile(background.latency_ms, 0.99), "ms");
  out.detail.set("ingest_mpps",
                 static_cast<double>(timed.packets) / total(timed.pass_s) / 1e6, "Mpps");
  std::cout << "refresh: " << timed.cycles << " cycles (" << fixed(100.0 * quiet.share, 0)
            << "% quiet), freshness p50 " << fixed(median(fresh_ms)) << " ms, tail p"
            << fixed(fresh.percentile, 1) << " " << fixed(fresh.value)
            << " ms (n=" << fresh.samples << "); background queries "
            << background.latency_ms.size() << " at " << kBackgroundRate << "/s\n";

  if (opt.trace) {
    // A cycle's trace id is its 1-based cycle number.
    const std::size_t days = chain.stream().days.size();
    reconcile(out, trace::collect(), "refresh.cycle", untraced.cycle_s, untraced.day,
              [days](std::uint64_t id) { return static_cast<std::size_t>((id - 1) % days); },
              per_group_trimmed(timed.cycle_s, timed.day) /
                      per_group_trimmed(untraced.cycle_s, untraced.day) -
                  1.0);
  }
  workload_layers(out, chain, pool, ledger.publishes);
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "ingest" || name == "query" || name == "refresh";
}

Outcome run_workload(const Options& opt) {
  Outcome out;
  trace::set_enabled(opt.trace);
  const Plan plan = plan_for(opt.workload);
  const std::string archive_dir = opt.workdir + "/archive";

  // Set up several times; the median is setup_s. Every set-up from one
  // seed must build the same inputs.
  std::unique_ptr<Chain> chain;
  std::vector<double> setup_s;
  std::optional<std::uint64_t> fingerprint;
  for (std::size_t i = 0; i < kSetups; ++i) {
    chain.reset();
    chain = std::make_unique<Chain>(plan, opt.seed, archive_dir);
    setup_s.push_back(chain->times().total_s);
    const std::uint64_t fp = chain->input_fingerprint();
    if (fingerprint && *fingerprint != fp) {
      check(out, false, "set-ups from one seed build identical inputs");
    }
    fingerprint = fp;
  }
  const SetupTimes& t = chain->times();
  std::cout << "setup (last of " << kSetups << "): scenario " << fixed(t.scenario_s)
            << " s, scangen " << fixed(t.scangen_s) << " s (" << chain->stream().packets
            << " packets, " << plan.days << " days), pipeline pass " << fixed(t.pass_s)
            << " s, flowsim " << fixed(t.flowsim_s) << " s, publish " << fixed(t.publish_s)
            << " s, daemon " << fixed(t.daemon_s) << " s; median total "
            << fixed(median(setup_s)) << " s\n";
  out.end_to_end.set("setup_s", median(setup_s), "s");

  const std::shared_ptr<const serve::StoreSnapshot> live =
      load_live_snapshot(chain->archive_dir());
  const QueryMix mix = build_mix(*chain, opt.seed);
  std::string detail;
  check(out, self_test(chain->reference(), mix, live->backend(), detail),
        "self-test: digest, flipped-byte and unknown-generation gates trip" +
            (detail.empty() ? "" : " (" + detail + ")"));
  const BackendFor backend_for =
      [&](std::uint64_t g) -> std::optional<serve::EngineBackend> {
    if (g == live->generation) return live->backend();
    return std::nullopt;
  };

  if (opt.trace) probe_layers(out, *chain, mix, *live, opt.workdir);
  const CpuTicks ticks0 = cpu_ticks();
  if (opt.workload == "ingest") {
    run_ingest(out, opt, *chain, mix, backend_for);
  } else if (opt.workload == "query") {
    run_query(out, opt, *chain, mix, backend_for);
  } else {
    run_refresh(out, opt, *chain, mix, live);
  }
  // Not a gate: a flag for reading the run. Steal of a few percent
  // already moves the query latencies several-fold.
  const double steal = steal_share(ticks0, cpu_ticks());
  out.detail.set("host_steal_share", steal, "ratio");
  std::cout << "host: " << fixed(100.0 * steal, 1)
            << "% of the machine's CPU time stolen by the hypervisor during the workload\n";
  out.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.detail.set("fail_ratio",
                 out.attempted == 0 ? 0.0
                                    : static_cast<double>(out.failed) /
                                          static_cast<double>(out.attempted),
                 "ratio");

  if (opt.trace) {
    const std::string path =
        opt.workdir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".jsonl";
    const std::vector<trace::Record> records = trace::collect();
    check(out, trace::write_jsonl(path, records),
          "spans written (" + std::to_string(records.size()) + " to " + path + ")");
  }
  return out;
}

}  // namespace perfbench
