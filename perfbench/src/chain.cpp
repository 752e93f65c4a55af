#include "chain.hpp"

#include <filesystem>
#include <stdexcept>

#include "orion/flowsim/routing.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/ode2.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kDayNanos = 86400000000000LL;

scangen::Scenario timed_scenario(double& seconds) {
  trace::Span span("scangen.scenario");
  const auto t0 = Clock::now();
  scangen::Scenario scenario{scangen::paper_scaled()};
  seconds = seconds_since(t0);
  return scenario;
}

template <typename T>
void crc_column(net::Crc32& crc, const T& column) {
  crc.update({reinterpret_cast<const std::uint8_t*>(column.data()),
              column.size() * sizeof(column[0])});
}

}  // namespace

Stream generate_stream(const scangen::Scenario& scenario, std::int64_t days,
                       std::uint64_t seed) {
  Stream stream;
  scangen::PacketStreamGenerator generator(
      scenario.population_2021().scanners, scenario.darknet(),
      net::SimTime::epoch(), net::SimTime::epoch() + net::Duration::days(days),
      {.seed = seed, .exact_targets = true, .stable_streams = true});
  stream.days.resize(static_cast<std::size_t>(days));
  // Batches are cut at UTC day edges, the way live_monitor feeds the
  // pipeline, so a day's packets never share a batch with the next day.
  while (const auto next_ns = generator.peek_time()) {
    const std::int64_t day = *next_ns / kDayNanos;
    if (day < 0 || day >= days) throw std::runtime_error("packet outside window");
    const std::int64_t day_end = (day + 1) * kDayNanos;
    pkt::PacketBatch batch(kBatchPackets);
    {
      trace::Span span("scangen.next_batch");
      while (batch.size() < kBatchPackets) {
        const auto t = generator.peek_time();
        if (!t || *t >= day_end) break;
        generator.next_batch(batch, 1);
      }
    }
    stream.packets += batch.size();
    stream.days[static_cast<std::size_t>(day)].push_back(std::move(batch));
  }
  return stream;
}

flowsim::FlowDataset generate_border_flows(const scangen::Scenario& scenario,
                                           std::int64_t days,
                                           std::uint64_t seed) {
  trace::Span span("flowsim.generate_flows");
  flowsim::FlowSimConfig config;
  config.isp_space = scenario.merit();
  config.start_day = 0;
  config.end_day = days;
  config.sampling_rate = 100;
  config.sampling_mode = flowsim::SamplingMode::Random;
  config.seed = seed;
  // The Merit-like border calibration of the paper benches (heavy
  // in-network caching shrinks the border denominator).
  config.user.base_pps = 23000.0;
  config.user.cache_fraction = 0.55;
  config.user.weekend_factor = 0.72;
  config.user.diurnal_amplitude = 0.35;
  config.user.growth_per_year = 0.10;
  config.user.seed = 4242;
  return flowsim::generate_flows(scenario.population_2021(),
                                 scenario.registry(),
                                 flowsim::PeeringPolicy::merit_like(), config);
}

std::vector<const pkt::PacketBatch*> all_batches(const Stream& stream) {
  std::vector<const pkt::PacketBatch*> out;
  for (const auto& day : stream.days) {
    for (const pkt::PacketBatch& b : day) out.push_back(&b);
  }
  return out;
}

std::vector<const pkt::PacketBatch*> day_batches(const Stream& stream,
                                                 std::size_t day) {
  std::vector<const pkt::PacketBatch*> out;
  for (const pkt::PacketBatch& b : stream.days.at(day)) out.push_back(&b);
  return out;
}

Pass run_pass(const scangen::Scenario& scenario,
              const telescope::ParallelConfig& config,
              const std::vector<const pkt::PacketBatch*>& batches) {
  Pass pass;
  std::optional<telescope::ParallelPipeline> pipeline;
  {
    trace::Span span("pipeline.construct");
    pipeline.emplace(scenario.darknet(), config);
  }
  pass.observe_us.reserve(batches.size());
  const auto t0 = Clock::now();
  for (const pkt::PacketBatch* batch : batches) {
    trace::Span span("pipeline.observe_batch");
    const auto c0 = Clock::now();
    pipeline->observe_batch(*batch);
    pass.observe_us.push_back(1e6 * seconds_since(c0));
  }
  pass.last_observe_end = Clock::now();
  {
    trace::Span span("pipeline.finish");
    pass.result.emplace(pipeline->finish());
  }
  const auto t1 = Clock::now();
  pass.seconds = seconds_between(t0, t1);
  pass.finish_s = seconds_between(pass.last_observe_end, t1);
  for (const double us : pass.observe_us) pass.observe_s += 1e-6 * us;
  for (const pkt::PacketBatch* batch : batches) pass.packets += batch->size();
  return pass;
}

Published publish_generation(store::ArchiveDir& archive,
                             const telescope::EventDataset& events,
                             const flowsim::FlowDataset& flows) {
  Published out;
  const auto t0 = Clock::now();
  std::vector<store::ManifestEntry> entries;
  {
    trace::Span span("store.publish_many");
    entries = archive.publish_many(
        {{"events",
          [&](net::io::File& file) {
            trace::Span write("store.write_events_ode2");
            const auto w0 = Clock::now();
            store::write_events_ode2(events, file);
            out.ode2_write_ms = 1e3 * seconds_since(w0);
          }},
         {"flows", [&](net::io::File& file) {
            trace::Span write("store.write_flows_fde1");
            const auto w0 = Clock::now();
            store::write_flows_fde1(flows, file);
            out.fde1_write_ms = 1e3 * seconds_since(w0);
          }}});
  }
  out.publish_ms = 1e3 * seconds_since(t0);
  out.generation = archive.generation();
  for (const store::ManifestEntry& e : entries) {
    if (e.name == "events") out.events = e;
    if (e.name == "flows") out.flows = e;
  }
  return out;
}

std::shared_ptr<const serve::StoreSnapshot> load_live_snapshot(
    const std::string& archive_dir) {
  const store::ArchiveDir archive(archive_dir);
  trace::Span span("serve.load_snapshot");
  return serve::load_snapshot(archive, "flows", "events");
}

Chain::Chain(Plan plan, std::uint64_t seed, std::string archive_dir)
    : plan_(std::move(plan)),
      seed_(seed),
      archive_dir_(std::move(archive_dir)),
      scenario_(timed_scenario(times_.scenario_s)) {
  trace::Span setup("setup");
  const auto t0 = Clock::now();
  times_.total_s = times_.scenario_s;

  auto step = Clock::now();
  stream_ = generate_stream(scenario_, plan_.days, seed_);
  times_.scangen_s = seconds_since(step);

  step = Clock::now();
  Pass pass = run_pass(scenario_, pipeline_config(plan_.shards),
                       all_batches(stream_));
  reference_ = std::move(pass.result);
  times_.pass_s = seconds_since(step);

  step = Clock::now();
  flows_.emplace(generate_border_flows(scenario_, plan_.days, seed_));
  times_.flowsim_s = seconds_since(step);

  step = Clock::now();
  std::filesystem::remove_all(archive_dir_);
  {
    store::ArchiveDir archive(archive_dir_);
    initial_ = publish_generation(archive, reference_->dataset, *flows_);
  }
  times_.publish_s = seconds_since(step);

  step = Clock::now();
  {
    trace::Span span("serve.daemon_start");
    serve::DaemonConfig config;
    config.archive_dir = archive_dir_;
    config.port = 0;
    config.workers = kDaemonWorkers;
    config.refresh_ms = kPollMs;
    config.batching = true;
    daemon_ = std::make_unique<serve::Daemon>(config);
    daemon_->start();
  }
  times_.daemon_s = seconds_since(step);
  times_.total_s += seconds_since(t0);
}

Chain::~Chain() {
  if (daemon_) daemon_->stop();
}

telescope::ParallelConfig Chain::pipeline_config(std::size_t shards) const {
  telescope::ParallelConfig config;
  config.shards = shards;
  config.aggregator.timeout = scenario_.event_timeout();
  config.detector.base = {
      .dispersion_threshold = scenario_.config().def1_dispersion,
      .packet_volume_alpha = scenario_.config().def2_alpha,
      .port_count_alpha = scenario_.config().def3_alpha};
  config.detector.warmup_samples = 500;
  return config;
}

std::uint64_t Chain::input_fingerprint() const {
  net::Crc32 crc;
  for (const auto& day : stream_.days) {
    for (const pkt::PacketBatch& b : day) {
      crc_column(crc, b.ts_ns());
      crc_column(crc, b.src_col());
      crc_column(crc, b.dst_col());
      crc_column(crc, b.src_port_col());
      crc_column(crc, b.dst_port_col());
      crc_column(crc, b.proto_col());
      crc_column(crc, b.tcp_flags_col());
      crc_column(crc, b.icmp_type_col());
      crc_column(crc, b.ip_id_col());
      crc_column(crc, b.tcp_seq_col());
    }
  }
  return (std::uint64_t{crc.value()} << 32) | initial_.flows.crc;
}

}  // namespace perfbench
