// Batched-hot-path equivalence suite (DESIGN.md §11): the columnar
// PacketBatch bridge must be lossless, and every batched engine —
// EventAggregator::observe_batch, TelescopeCapture::observe_batch,
// ParallelPipeline::observe_batch, the SpscRing span operations, the
// slicing-by-8 CRC-32 and the 8-byte-fold Internet checksum — must be
// pinned byte-identical to its scalar reference for ANY batch size
// (including 1 and ragged tails), across day rollovers, sweep-heavy
// expiry storms, and checkpoint/resume cuts that land mid-batch. Runs
// under the `hotpath` ctest label and the asan-ubsan + tsan presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "orion/netbase/checksum.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/packet/batch.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/stats/hyperloglog.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/parallel.hpp"
#include "orion/telescope/spsc_ring.hpp"
#include "orion/telescope/store.hpp"

namespace orion {
namespace {

// ------------------------------------------------------------ fixtures

const scangen::Scenario& scenario() {
  static const scangen::Scenario s{scangen::tiny()};
  return s;
}

/// Multi-day scangen stream: realistic tool mix, day rollovers inside.
std::vector<pkt::Packet> scangen_stream(std::int64_t days) {
  scangen::PacketStreamGenerator generator(
      scenario().population_2021().scanners, scenario().darknet(),
      net::SimTime::epoch(), net::SimTime::epoch() + net::Duration::days(days),
      {.seed = 17, .exact_targets = true, .stable_streams = true});
  std::vector<pkt::Packet> packets;
  while (auto p = generator.next()) packets.push_back(*p);
  return packets;
}

net::PrefixSet small_dark_space() {
  return net::PrefixSet({*net::Prefix::parse("198.18.0.0/24")});
}

/// Aggressive expiry settings so sweeps fire constantly and events churn.
telescope::AggregatorConfig sweep_heavy_config() {
  telescope::AggregatorConfig config;
  config.timeout = net::Duration::minutes(10);
  config.sweep_interval = net::Duration::minutes(1);
  return config;
}

/// Synthetic stream built for expiry storms: waves of sources hammer the
/// /24, then all go idle past the timeout together, so one sweep expires
/// a whole cohort at once — the case where the batch path's wheel-ordered
/// emission must reproduce the scalar erase_if scan order exactly.
std::vector<pkt::Packet> expiry_storm_stream() {
  std::vector<pkt::Packet> out;
  std::int64_t t = 0;
  std::mt19937 rng(7);
  for (int wave = 0; wave < 12; ++wave) {
    // Burst: 48 sources, a handful of packets each, seconds apart.
    for (int step = 0; step < 240; ++step) {
      pkt::Packet p;
      p.timestamp = net::SimTime::epoch() + net::Duration::seconds(t++);
      p.tuple.src = net::Ipv4Address(0xCB007100u + rng() % 48);
      p.tuple.dst = net::Ipv4Address(0xC6120000u + rng() % 256);
      p.tuple.src_port = static_cast<std::uint16_t>(1024 + rng() % 60000);
      p.tuple.dst_port = static_cast<std::uint16_t>(rng() % 3 ? 23 : 2323);
      p.tuple.proto = net::IpProto::Tcp;
      p.tcp_flags = pkt::TcpFlags::kSyn;
      pkt::apply_fingerprint(
          p, static_cast<pkt::ScanTool>(rng() % 4));
      out.push_back(p);
    }
    // Silence well past the timeout, so the next packet's sweep expires
    // every event of the wave in one batch_sweep call.
    t += 25 * 60;
  }
  return out;
}

struct CaptureState {
  std::uint32_t checkpoint_crc = 0;
  std::vector<telescope::DarknetEvent> events;
  std::uint64_t packets = 0;
  std::size_t sources = 0;

  bool operator==(const CaptureState&) const = default;
};

std::uint32_t checkpoint_crc(const telescope::TelescopeCapture& capture) {
  telescope::CheckpointWriter writer;
  capture.checkpoint(writer);
  std::ostringstream snapshot;
  writer.finish(snapshot);
  const std::string bytes = snapshot.str();
  return net::Crc32::of(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

/// Full-run state: checkpoint bytes are hashed BEFORE finish() so the
/// comparison covers live (mid-stream) aggregator state, not just output.
CaptureState drain(telescope::TelescopeCapture& capture) {
  CaptureState state;
  state.checkpoint_crc = checkpoint_crc(capture);
  state.packets = capture.packets_captured();
  state.sources = capture.unique_sources();
  state.events = capture.finish().events();
  return state;
}

CaptureState scalar_run(const std::vector<pkt::Packet>& packets,
                        const net::PrefixSet& dark,
                        const telescope::AggregatorConfig& config) {
  telescope::TelescopeCapture capture(dark, config);
  for (const pkt::Packet& p : packets) capture.observe(p);
  return drain(capture);
}

/// Chunks `packets` with the given sequence of batch sizes (cycled) and
/// feeds them through observe_batch on a single reused arena.
CaptureState batched_run(const std::vector<pkt::Packet>& packets,
                         const net::PrefixSet& dark,
                         const telescope::AggregatorConfig& config,
                         const std::vector<std::size_t>& sizes) {
  telescope::TelescopeCapture capture(dark, config);
  pkt::PacketBatch batch;
  std::size_t i = 0, cycle = 0;
  while (i < packets.size()) {
    const std::size_t size = sizes[cycle++ % sizes.size()];
    batch.clear();
    for (std::size_t j = 0; j < size && i < packets.size(); ++j, ++i) {
      batch.push_back(packets[i]);
    }
    capture.observe_batch(batch);
  }
  return drain(capture);
}

pkt::Packet random_packet(std::mt19937_64& rng) {
  pkt::Packet p;
  p.timestamp = net::SimTime::epoch() +
                net::Duration::nanos(static_cast<std::int64_t>(rng() >> 16));
  p.tuple.src = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
  p.tuple.dst = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
  p.tuple.src_port = static_cast<std::uint16_t>(rng());
  p.tuple.dst_port = static_cast<std::uint16_t>(rng());
  const net::IpProto protos[] = {net::IpProto::Tcp, net::IpProto::Udp,
                                 net::IpProto::Icmp};
  p.tuple.proto = protos[rng() % 3];
  p.ip_id = static_cast<std::uint16_t>(rng());
  p.ttl = static_cast<std::uint8_t>(rng());
  p.tcp_flags = static_cast<std::uint8_t>(rng());
  p.tcp_seq = static_cast<std::uint32_t>(rng());
  p.tcp_window = static_cast<std::uint16_t>(rng());
  p.icmp_type = static_cast<std::uint8_t>(rng() % 16);
  p.wire_length = static_cast<std::uint16_t>(40 + rng() % 1400);
  return p;
}

bool same_packet(const pkt::Packet& a, const pkt::Packet& b) {
  return a.timestamp == b.timestamp && a.tuple == b.tuple &&
         a.ip_id == b.ip_id && a.ttl == b.ttl && a.tcp_flags == b.tcp_flags &&
         a.tcp_seq == b.tcp_seq && a.tcp_window == b.tcp_window &&
         a.icmp_type == b.icmp_type && a.wire_length == b.wire_length;
}

// ---------------------------------------------------------- PacketBatch

TEST(PacketBatch, RoundTripIsLossless) {
  std::mt19937_64 rng(1);
  std::vector<pkt::Packet> packets;
  pkt::PacketBatch batch;
  for (int i = 0; i < 1000; ++i) {
    packets.push_back(random_packet(rng));
    batch.push_back(packets.back());
  }
  ASSERT_EQ(batch.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_TRUE(same_packet(batch.packet_at(i), packets[i])) << "record " << i;
  }
}

TEST(PacketBatch, GatherRowsCopiesAllColumns) {
  std::mt19937_64 rng(2);
  pkt::PacketBatch source;
  for (int i = 0; i < 64; ++i) source.push_back(random_packet(rng));
  // Gather in a shuffled order, in ragged pieces, the way the pipeline
  // dispatcher fills a shard's pending batch.
  std::vector<std::uint32_t> order(source.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::shuffle(order.begin(), order.end(), rng);
  pkt::PacketBatch scattered;
  const std::span<const std::uint32_t> rows(order);
  scattered.append_rows(source, rows.first(0));
  scattered.append_rows(source, rows.first(5));
  scattered.append_rows(source, rows.subspan(5));
  ASSERT_EQ(scattered.size(), order.size());
  for (std::size_t j = 0; j < order.size(); ++j) {
    EXPECT_TRUE(same_packet(scattered.packet_at(j), source.packet_at(order[j])));
  }
  // A range append is the identity gather over [first, first + count).
  pkt::PacketBatch ranged;
  ranged.append_range(source, 3, 0);
  ranged.append_range(source, 3, 20);
  ranged.append_range(source, 23, source.size() - 23);
  ASSERT_EQ(ranged.size(), source.size() - 3);
  for (std::size_t j = 0; j < ranged.size(); ++j) {
    EXPECT_TRUE(same_packet(ranged.packet_at(j), source.packet_at(j + 3)));
  }
}

TEST(PacketBatch, ColumnClassifiersMatchScalar) {
  std::mt19937_64 rng(3);
  pkt::PacketBatch batch;
  std::vector<pkt::Packet> packets;
  for (int i = 0; i < 4000; ++i) {
    pkt::Packet p = random_packet(rng);
    // Half the stream carries genuine tool artifacts so every ScanTool
    // branch of the classifier is exercised, not just Other.
    if (i % 2 == 0) {
      pkt::apply_fingerprint(p, static_cast<pkt::ScanTool>(rng() % 4));
    }
    packets.push_back(p);
    batch.push_back(p);
  }
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(batch.traffic_type(i), packets[i].traffic_type());
    EXPECT_EQ(batch.tool(i), pkt::fingerprint_of(packets[i]));
  }
  // clear() keeps capacity but drops every record.
  batch.clear();
  EXPECT_TRUE(batch.empty());
}

// ------------------------------------------------------------ checksums

TEST(Crc32, SlicedMatchesScalarOneShotFuzz) {
  std::mt19937_64 rng(11);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> data(rng() % 4096);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(net::Crc32::of(data), net::Crc32::of_scalar(data))
        << "length " << data.size();
  }
  // Every length near the 8-byte slicing boundary, deterministically.
  for (std::size_t len = 0; len <= 33; ++len) {
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::uint8_t>(i * 37);
    EXPECT_EQ(net::Crc32::of(data), net::Crc32::of_scalar(data)) << "length " << len;
  }
}

TEST(Crc32, SlicedMatchesScalarUnderArbitraryChunking) {
  std::mt19937_64 rng(12);
  std::vector<std::uint8_t> data(1 << 16);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t reference = net::Crc32::of_scalar(data);
  for (int round = 0; round < 30; ++round) {
    net::Crc32 sliced;
    net::Crc32 mixed;  // randomly alternates the two forms on one stream
    std::size_t i = 0;
    while (i < data.size()) {
      const std::size_t n = std::min<std::size_t>(1 + rng() % 777, data.size() - i);
      const std::span<const std::uint8_t> chunk(data.data() + i, n);
      sliced.update(chunk);
      if (rng() % 2) {
        mixed.update(chunk);
      } else {
        mixed.update_scalar(chunk);
      }
      i += n;
    }
    EXPECT_EQ(sliced.value(), reference);
    EXPECT_EQ(mixed.value(), reference);
  }
}

TEST(InternetChecksum, FoldedMatchesScalarOneShotFuzz) {
  std::mt19937_64 rng(13);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> data(rng() % 4096);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(net::InternetChecksum::of(data),
              net::InternetChecksum::of_scalar(data))
        << "length " << data.size();
  }
  for (std::size_t len = 0; len <= 33; ++len) {
    std::vector<std::uint8_t> data(len, 0xFF);  // saturating carries
    EXPECT_EQ(net::InternetChecksum::of(data),
              net::InternetChecksum::of_scalar(data))
        << "length " << len;
  }
}

TEST(InternetChecksum, FoldedMatchesScalarOnIdenticalCallSequences) {
  // The accumulator contract is per-call-sequence (an odd-length chunk
  // pads, exactly like the scalar form), so both accumulators must see
  // the same chunking — and then agree for ANY chunking.
  std::mt19937_64 rng(14);
  std::vector<std::uint8_t> data(1 << 15);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (int round = 0; round < 30; ++round) {
    net::InternetChecksum folded;
    net::InternetChecksum scalar;
    folded.add_word(static_cast<std::uint16_t>(round * 9176));  // pseudo-header
    scalar.add_word(static_cast<std::uint16_t>(round * 9176));
    std::size_t i = 0;
    while (i < data.size()) {
      const std::size_t n = std::min<std::size_t>(1 + rng() % 513, data.size() - i);
      folded.add_bytes({data.data() + i, n});
      scalar.add_bytes_scalar({data.data() + i, n});
      i += n;
    }
    EXPECT_EQ(folded.finalize(), scalar.finalize());
  }
}

// ------------------------------------------------------- SpscRing spans

TEST(SpscRing, SpanPushPopPartialAcceptance) {
  telescope::SpscRing<int> ring(8);
  std::vector<int> values = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ring.try_push_n(std::span<int>(values)), 6u);
  // Only 2 slots left: a 6-wide push takes 2 and reports it.
  EXPECT_EQ(ring.try_push_n(std::span<int>(values)), 2u);
  EXPECT_EQ(ring.try_push_n(std::span<int>(values)), 0u);  // full

  std::vector<int> out(5, 0);
  EXPECT_EQ(ring.try_pop_n(std::span<int>(out)), 5u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
  std::vector<int> rest(8, 0);
  EXPECT_EQ(ring.try_pop_n(std::span<int>(rest)), 3u);  // 6, then 1, 2 again
  EXPECT_EQ(rest[0], 6);
  EXPECT_EQ(rest[1], 1);
  EXPECT_EQ(rest[2], 2);
  EXPECT_EQ(ring.try_pop_n(std::span<int>(rest)), 0u);  // empty
}

TEST(SpscRing, SpanOpsTwoThreadStressPreserveFifo) {
  constexpr std::uint64_t kCount = 50000;
  telescope::SpscRing<std::uint64_t> ring(64);
  std::thread producer([&ring] {
    std::mt19937 rng(21);
    std::uint64_t next = 0;
    std::vector<std::uint64_t> span;
    while (next < kCount) {
      const std::size_t want =
          std::min<std::uint64_t>(1 + rng() % 7, kCount - next);
      span.resize(want);
      for (std::size_t i = 0; i < want; ++i) span[i] = next + i;
      std::size_t pushed = 0;
      while (pushed < want) {
        const std::size_t n = ring.try_push_n(
            std::span<std::uint64_t>(span.data() + pushed, want - pushed));
        if (n == 0) std::this_thread::yield();  // 1-core CI friendliness
        pushed += n;
      }
      next += want;
    }
  });
  std::mt19937 rng(22);
  std::uint64_t expected = 0;
  std::vector<std::uint64_t> out;
  while (expected < kCount) {
    out.resize(1 + rng() % 9);
    const std::size_t n = ring.try_pop_n(std::span<std::uint64_t>(out));
    if (n == 0) std::this_thread::yield();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], expected) << "FIFO order violated";
      ++expected;
    }
  }
  producer.join();
}

// ------------------------------------- scangen batched emission

TEST(ScangenBatch, NextBatchMatchesNextExactly) {
  const scangen::PacketGenConfig options{
      .seed = 17, .exact_targets = true, .stable_streams = true};
  scangen::PacketStreamGenerator scalar(
      scenario().population_2021().scanners, scenario().darknet(),
      net::SimTime::epoch(), net::SimTime::epoch() + net::Duration::days(1),
      options);
  scangen::PacketStreamGenerator batched(
      scenario().population_2021().scanners, scenario().darknet(),
      net::SimTime::epoch(), net::SimTime::epoch() + net::Duration::days(1),
      options);
  std::mt19937 rng(31);
  pkt::PacketBatch batch;
  for (;;) {
    const auto peek = batched.peek_time();
    batch.clear();
    const std::size_t n = batched.next_batch(batch, 1 + rng() % 97);
    if (n == 0) {
      EXPECT_FALSE(peek.has_value());
      EXPECT_FALSE(scalar.next().has_value());
      break;
    }
    ASSERT_TRUE(peek.has_value());
    EXPECT_EQ(*peek, batch.timestamp_nanos(0));
    for (std::size_t i = 0; i < n; ++i) {
      const auto reference = scalar.next();
      ASSERT_TRUE(reference.has_value());
      EXPECT_TRUE(same_packet(batch.packet_at(i), *reference));
    }
  }
  EXPECT_EQ(scalar.packets_emitted(), batched.packets_emitted());
}

// ------------------------------------- aggregator batch equivalence

TEST(BatchEquivalence, FixedAndRaggedBatchSizesMatchScalar) {
  const auto packets = scangen_stream(2);
  const auto dark = scenario().darknet();
  telescope::AggregatorConfig config;
  config.timeout = scenario().event_timeout();
  const CaptureState reference = scalar_run(packets, dark, config);
  ASSERT_FALSE(reference.events.empty());

  for (const std::size_t size : {std::size_t{1}, std::size_t{3},
                                 std::size_t{64}, std::size_t{256},
                                 std::size_t{1024}}) {
    EXPECT_EQ(batched_run(packets, dark, config, {size}), reference)
        << "batch size " << size;
  }
  // Ragged mixes, including size-1 batches and a tail that never fills.
  EXPECT_EQ(batched_run(packets, dark, config, {1, 513, 2, 64, 7}), reference);
  std::mt19937 rng(41);
  std::vector<std::size_t> random_sizes;
  for (int i = 0; i < 100; ++i) random_sizes.push_back(1 + rng() % 512);
  EXPECT_EQ(batched_run(packets, dark, config, random_sizes), reference);
}

TEST(BatchEquivalence, ExpiryStormSweepOrderMatchesScalar) {
  const auto packets = expiry_storm_stream();
  const auto dark = small_dark_space();
  const auto config = sweep_heavy_config();
  const CaptureState reference = scalar_run(packets, dark, config);
  ASSERT_GT(reference.events.size(), 100u);  // the storm must churn events
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{17}, std::size_t{240}, std::size_t{4096}}) {
    EXPECT_EQ(batched_run(packets, dark, config, {size}), reference)
        << "batch size " << size;
  }
}

TEST(BatchEquivalence, MixedScalarAndBatchCallsMatchScalar) {
  // Alternating observe() and observe_batch() on one capture exercises the
  // aux-wheel invalidate/rebuild seam both ways.
  const auto packets = expiry_storm_stream();
  const auto dark = small_dark_space();
  const auto config = sweep_heavy_config();
  const CaptureState reference = scalar_run(packets, dark, config);

  std::mt19937 rng(43);
  telescope::TelescopeCapture capture(dark, config);
  pkt::PacketBatch batch;
  std::size_t i = 0;
  while (i < packets.size()) {
    if (rng() % 2) {
      capture.observe(packets[i++]);
    } else {
      const std::size_t size = 1 + rng() % 300;
      batch.clear();
      for (std::size_t j = 0; j < size && i < packets.size(); ++j, ++i) {
        batch.push_back(packets[i]);
      }
      capture.observe_batch(batch);
    }
  }
  EXPECT_EQ(drain(capture), reference);
}

TEST(BatchEquivalence, AdvanceToAtDayRolloversMatchesScalar) {
  // The longitudinal driver closes days with advance_to(); batch ingest
  // that cuts batches at UTC day edges must land in the same state.
  const auto packets = scangen_stream(3);
  const auto dark = scenario().darknet();
  telescope::AggregatorConfig config;
  config.timeout = scenario().event_timeout();
  constexpr std::int64_t kDayNanos = 86400000000000LL;

  const auto day_of = [&](const pkt::Packet& p) {
    return p.timestamp.since_epoch().total_nanos() / kDayNanos;
  };

  telescope::EventCollector scalar_events;
  telescope::EventAggregator scalar(dark, config, scalar_events.sink());
  std::int64_t open_day = day_of(packets.front());
  for (const pkt::Packet& p : packets) {
    if (day_of(p) != open_day) {
      scalar.advance_to(net::SimTime::epoch() +
                        net::Duration::nanos(day_of(p) * kDayNanos));
      open_day = day_of(p);
    }
    scalar.observe(p);
  }
  scalar.finish();

  telescope::EventCollector batch_events;
  telescope::EventAggregator batched(dark, config, batch_events.sink());
  pkt::PacketBatch batch;
  std::size_t i = 0;
  std::mt19937 rng(44);
  while (i < packets.size()) {
    const std::int64_t day = day_of(packets[i]);
    if (i > 0 && day != day_of(packets[i - 1])) {
      batched.advance_to(net::SimTime::epoch() +
                         net::Duration::nanos(day * kDayNanos));
    }
    const std::size_t size = 1 + rng() % 200;
    batch.clear();
    while (batch.size() < size && i < packets.size() &&
           day_of(packets[i]) == day) {
      batch.push_back(packets[i++]);
    }
    batched.observe_batch(batch);
  }
  batched.finish();

  EXPECT_EQ(batch_events.events(), scalar_events.events());
  EXPECT_EQ(batched.packets_seen(), scalar.packets_seen());
  EXPECT_EQ(batched.events_emitted(), scalar.events_emitted());
}

TEST(BatchEquivalence, CheckpointResumeMidBatchMatchesUninterrupted) {
  const auto packets = expiry_storm_stream();
  const auto dark = small_dark_space();
  const auto config = sweep_heavy_config();
  const CaptureState reference = scalar_run(packets, dark, config);

  std::mt19937 rng(45);
  for (int round = 0; round < 4; ++round) {
    // A cut point deliberately NOT aligned to the batch size, so the
    // checkpoint lands mid-way through what would have been one batch.
    const std::size_t cut = 1 + rng() % (packets.size() - 1);
    const std::size_t batch_size = 64;

    telescope::TelescopeCapture first(dark, config);
    pkt::PacketBatch batch;
    std::size_t i = 0;
    while (i < cut) {
      batch.clear();
      for (std::size_t j = 0; j < batch_size && i < cut; ++j, ++i) {
        batch.push_back(packets[i]);
      }
      first.observe_batch(batch);
    }
    telescope::CheckpointWriter writer;
    first.checkpoint(writer);
    std::stringstream snapshot;
    writer.finish(snapshot);

    telescope::TelescopeCapture resumed(dark, config);
    telescope::CheckpointReader reader(snapshot);
    resumed.restore(reader);
    while (i < packets.size()) {
      batch.clear();
      for (std::size_t j = 0; j < batch_size && i < packets.size(); ++j, ++i) {
        batch.push_back(packets[i]);
      }
      resumed.observe_batch(batch);
    }
    EXPECT_EQ(drain(resumed), reference) << "cut at " << cut;
  }
}

TEST(BatchEquivalence, TimestampRegressionThrowsBeforeAnyRecordApplies) {
  const auto dark = small_dark_space();
  const auto config = sweep_heavy_config();
  const auto packets = expiry_storm_stream();

  telescope::TelescopeCapture capture(dark, config);
  pkt::PacketBatch prefix;
  for (std::size_t i = 0; i < 100; ++i) prefix.push_back(packets[i]);
  capture.observe_batch(prefix);
  const std::uint32_t before = checkpoint_crc(capture);

  // Valid head, regressing tail: the batch contract is all-or-nothing, so
  // the valid head must NOT be applied (stronger than the scalar loop).
  pkt::PacketBatch bad;
  bad.push_back(packets[100]);
  pkt::Packet regressed = packets[101];
  regressed.timestamp = packets[0].timestamp;
  bad.push_back(regressed);
  EXPECT_THROW(capture.observe_batch(bad), std::invalid_argument);
  EXPECT_EQ(checkpoint_crc(capture), before);

  // The capture stays usable and convergent afterwards.
  pkt::PacketBatch rest;
  for (std::size_t i = 100; i < packets.size(); ++i) rest.push_back(packets[i]);
  capture.observe_batch(rest);
  EXPECT_EQ(drain(capture), scalar_run(packets, dark, config));
}

// ------------------------------------- parallel pipeline batch path

TEST(ParallelPipelineBatch, ObserveBatchMatchesSerialAcrossShardCounts) {
  const auto packets = scangen_stream(2);

  telescope::AggregatorConfig agg_config;
  agg_config.timeout = scenario().event_timeout();
  detect::StreamingConfig det_config;
  det_config.base = {.dispersion_threshold = scenario().config().def1_dispersion,
                     .packet_volume_alpha = scenario().config().def2_alpha,
                     .port_count_alpha = scenario().config().def3_alpha};
  det_config.warmup_samples = 500;

  telescope::TelescopeCapture serial(scenario().darknet(), agg_config);
  for (const pkt::Packet& p : packets) serial.observe(p);
  const std::vector<telescope::DarknetEvent> reference =
      serial.finish().events();

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{3}, std::size_t{4}}) {
    telescope::ParallelConfig config;
    config.shards = shards;
    config.batch_size = 96;
    config.ring_capacity = 8;  // small: forces backpressure + recycling
    config.aggregator = agg_config;
    config.detector = det_config;
    telescope::ParallelPipeline pipeline(scenario().darknet(), config);
    std::mt19937 rng(50 + static_cast<unsigned>(shards));
    pkt::PacketBatch batch;
    std::size_t i = 0;
    while (i < packets.size()) {
      const std::size_t size = 1 + rng() % 333;
      batch.clear();
      for (std::size_t j = 0; j < size && i < packets.size(); ++j, ++i) {
        batch.push_back(packets[i]);
      }
      pipeline.observe_batch(batch);
    }
    const telescope::ParallelResult result = pipeline.finish();
    EXPECT_EQ(result.dataset.events(), reference) << shards << " shards";
    EXPECT_EQ(result.health.ingested, packets.size());
    EXPECT_EQ(result.health.delivered, packets.size());
    EXPECT_EQ(result.health.dropped(), 0u);
    EXPECT_TRUE(result.health.consistent());
  }
}

// ------------------------------------- flat-set cardinality estimator

TEST(CardinalityEstimatorFlatSet, MatchesReferenceSetAndOrderInvariant) {
  std::mt19937_64 rng(61);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 3000; ++i) {
    // Small key range forces duplicates; 0 exercises the sentinel slot.
    keys.push_back(rng() % 1500);
  }
  std::vector<std::uint64_t> shuffled = keys;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  for (const std::size_t limit : {std::size_t{64}, std::size_t{4096}}) {
    stats::CardinalityEstimator forward(limit);
    stats::CardinalityEstimator reordered(limit);
    std::vector<std::uint64_t> reference;
    for (const std::uint64_t k : keys) {
      forward.add(k);
      if (std::find(reference.begin(), reference.end(), k) == reference.end()) {
        reference.push_back(k);
      }
    }
    for (const std::uint64_t k : shuffled) reordered.add(k);

    EXPECT_EQ(forward.is_exact(), reference.size() <= limit);
    EXPECT_EQ(forward.is_exact(), reordered.is_exact());
    // Insertion order must not matter — exact phase or promoted sketch.
    EXPECT_EQ(forward.estimate(), reordered.estimate());
    if (forward.is_exact()) {
      EXPECT_EQ(forward.estimate(), reference.size());
      std::vector<std::uint64_t> got = forward.exact_keys();
      std::sort(got.begin(), got.end());
      std::sort(reference.begin(), reference.end());
      EXPECT_EQ(got, reference);
    } else {
      EXPECT_EQ(forward.sketch().registers(), reordered.sketch().registers());
    }

    // restore() round-trips the flat set through the checkpoint shape.
    stats::CardinalityEstimator restored(limit);
    restored.restore(!forward.is_exact(), forward.exact_keys(),
                     forward.sketch());
    EXPECT_EQ(restored.estimate(), forward.estimate());
    restored.add(999999);  // stays usable after restore
  }
}

// ------------------------------------- dense exact phase (DESIGN.md §17)

/// Model check of the estimator against std::set at the key bounds the
/// aggregator passes (none; small, /17 and ORION-sized darknets; a /8 whose
/// bitmap outsizes any table): after every add — including the add that
/// switches to the bitmap and the one that promotes — estimate() and
/// is_exact() match the model and a bound-less twin fed the same keys;
/// at probe points the exact key sets agree and a checkpoint-shaped
/// restore round-trips; from promotion on the HLL registers are identical.
TEST(CardinalityEstimatorDense, ModelCheckAcrossKeyBounds) {
  const std::uint64_t bounds[] = {0, 1024, 32768, 475000, std::uint64_t{1} << 24};
  for (const std::uint64_t bound : bounds) {
    SCOPED_TRACE("key bound " + std::to_string(bound));
    // The aggregator's default limit; the 1024-key space needs a lower
    // one to reach promotion at all.
    const std::size_t limit = bound == 1024 ? 600 : 16384;
    stats::CardinalityEstimator est(limit, 12, bound);
    stats::CardinalityEstimator twin(limit, 12);
    std::set<std::uint64_t> model;
    std::vector<std::uint64_t> seen;
    std::mt19937_64 rng(bound + 11);
    bool went_dense = false;
    std::size_t next_probe = 1;

    const auto sorted_keys = [](const stats::CardinalityEstimator& e) {
      std::vector<std::uint64_t> keys = e.exact_keys();
      std::sort(keys.begin(), keys.end());
      return keys;
    };
    const auto probe = [&] {
      const std::vector<std::uint64_t> want(model.begin(), model.end());
      if (est.is_exact()) {
        ASSERT_EQ(sorted_keys(est), want);
        ASSERT_EQ(sorted_keys(twin), want);
      }
      stats::CardinalityEstimator restored(limit, 12, bound);
      restored.restore(!est.is_exact(), est.exact_keys(), est.sketch());
      ASSERT_EQ(restored.estimate(), est.estimate());
      ASSERT_EQ(restored.is_exact(), est.is_exact());
      ASSERT_EQ(restored.is_dense(), est.is_dense());
      ASSERT_EQ(sorted_keys(restored), sorted_keys(est));
      ASSERT_EQ(restored.sketch().registers(), est.sketch().registers());
    };

    for (std::size_t i = 0; model.size() <= limit + 300; ++i) {
      std::uint64_t key;
      if (i == 3) {
        key = 0;
      } else if (i == 5 && bound != 0) {
        key = bound - 1;
      } else if (i % 5 == 4 && !seen.empty()) {
        key = seen[rng() % seen.size()];  // a duplicate
      } else {
        key = bound == 0 ? rng() >> (rng() % 64) : rng() % bound;
      }
      const bool was_dense = est.is_dense();
      const bool was_exact = est.is_exact();
      est.add(key);
      twin.add(key);
      if (model.insert(key).second) seen.push_back(key);

      ASSERT_EQ(est.is_exact(), model.size() <= limit) << "add " << i;
      ASSERT_EQ(est.estimate(), twin.estimate()) << "add " << i;
      ASSERT_EQ(est.is_exact(), twin.is_exact()) << "add " << i;
      ASSERT_FALSE(twin.is_dense());
      if (est.is_exact()) {
        ASSERT_EQ(est.estimate(), model.size());
      }
      if (!est.is_exact()) {
        ASSERT_EQ(est.sketch().registers(), twin.sketch().registers())
            << "add " << i;
      }
      went_dense = went_dense || est.is_dense();
      const bool switched = was_dense != est.is_dense();
      const bool promoted_now = was_exact != est.is_exact();
      if (switched || promoted_now || model.size() >= next_probe) {
        probe();
        if (HasFatalFailure()) return;
        while (next_probe <= model.size()) next_probe *= 2;
      }
    }
    EXPECT_FALSE(est.is_exact());
    // Dense exactly when a bitmap over the bound is smaller than the
    // table would grow to below the limit.
    EXPECT_EQ(went_dense, bound == 1024 || bound == 32768 || bound == 475000);

    if (bound != 0) {
      EXPECT_THROW(est.add(bound), std::out_of_range);
      stats::CardinalityEstimator fresh(limit, 12, bound);
      EXPECT_THROW(fresh.add(bound), std::out_of_range);
      EXPECT_THROW(fresh.restore(false, {1, bound}, stats::HyperLogLog(12)),
                   std::invalid_argument);
    }
    stats::CardinalityEstimator fresh(limit, 12, bound);
    EXPECT_THROW(fresh.restore(true, {1}, stats::HyperLogLog(12)),
                 std::invalid_argument);
  }
}

// ------------------------------------- column-gather dispatcher (§17.2)

struct PipelineOutcome {
  std::string dataset_bytes;
  std::vector<detect::StreamingDayResult> days;
  std::array<std::vector<std::uint32_t>, 3> ips;
  std::string mid_checkpoint;    // pipeline checkpoint at half the stream
  std::string final_checkpoint;  // after every packet, before finish()
  std::uint64_t restarts = 0;

  bool same_output(const PipelineOutcome& o) const {
    return dataset_bytes == o.dataset_bytes && days == o.days && ips == o.ips;
  }
};

std::string pipeline_checkpoint(telescope::ParallelPipeline& pipeline) {
  telescope::CheckpointWriter writer;
  pipeline.checkpoint(writer);
  std::ostringstream out;
  writer.finish(out);
  return out.str();
}

/// A PPL2 checkpoint frame minus the fields a healed run legitimately
/// changes: its worker_restarts count and the CRC trailer covering it.
/// Layout: 20-byte OCP1 header, then tag, shards, darknet size (u64 each),
/// saw_packet (u8), last timestamp, ingested, shed, stalls, restarts.
std::string without_restart_ledger(const std::string& frame) {
  constexpr std::size_t kRestarts = 20 + 3 * 8 + 1 + 4 * 8;
  return frame.substr(0, kRestarts) +
         frame.substr(kRestarts + 8, frame.size() - 4 - (kRestarts + 8));
}

/// Feeds `packets` through a pipeline: per-record observe() when `sizes`
/// is empty, else observe_batch() in incoming batches cycling through
/// `sizes`. Checkpoints mid-stream and at the end of the stream.
PipelineOutcome pipeline_outcome(const std::vector<pkt::Packet>& packets,
                                 const telescope::ParallelConfig& config,
                                 const std::vector<std::size_t>& sizes) {
  telescope::ParallelPipeline pipeline(scenario().darknet(), config);
  PipelineOutcome out;
  const std::size_t half = packets.size() / 2;
  pkt::PacketBatch batch;
  std::size_t cycle = 0;
  const auto feed = [&](std::size_t from, std::size_t to) {
    if (sizes.empty()) {
      for (std::size_t i = from; i < to; ++i) pipeline.observe(packets[i]);
      return;
    }
    for (std::size_t i = from; i < to;) {
      const std::size_t size = sizes[cycle++ % sizes.size()];
      batch.clear();
      for (std::size_t j = 0; j < size && i < to; ++j, ++i) {
        batch.push_back(packets[i]);
      }
      pipeline.observe_batch(batch);
    }
  };
  feed(0, half);
  out.mid_checkpoint = pipeline_checkpoint(pipeline);
  feed(half, packets.size());
  out.final_checkpoint = pipeline_checkpoint(pipeline);
  telescope::ParallelResult result = pipeline.finish();
  std::ostringstream bytes;
  telescope::write_events_binary(result.dataset, bytes);
  out.dataset_bytes = bytes.str();
  out.days = std::move(result.days);
  for (std::size_t d = 0; d < 3; ++d) {
    for (const net::Ipv4Address ip : result.ips[d]) out.ips[d].push_back(ip.value());
    std::sort(out.ips[d].begin(), out.ips[d].end());
  }
  out.restarts = result.health.worker_restarts;
  return out;
}

TEST(ParallelPipelineBatch, ColumnScatterIsByteIdenticalToRecordAtATime) {
  // Every 7th packet is re-aimed outside the dark space, so the gathered
  // membership column has both values and must travel with its record.
  std::vector<pkt::Packet> packets = scangen_stream(1);
  for (std::size_t i = 3; i < packets.size(); i += 7) {
    packets[i].tuple.dst = net::Ipv4Address(0xCB007100u + static_cast<std::uint32_t>(i % 256));
  }
  telescope::ParallelConfig base;
  base.aggregator.timeout = scenario().event_timeout();
  base.detector.base = {.dispersion_threshold = scenario().config().def1_dispersion,
                        .packet_volume_alpha = scenario().config().def2_alpha,
                        .port_count_alpha = scenario().config().def3_alpha};
  base.detector.warmup_samples = 500;
  base.ring_capacity = 8;

  base.shards = 1;
  const PipelineOutcome serial = pipeline_outcome(packets, base, {});
  const std::vector<std::size_t> ragged = {1, 333, 7, 4096, 0, 64, 1000, 2};
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                   std::size_t{4}, std::size_t{8}}) {
    telescope::ParallelConfig config = base;
    config.shards = shards;
    // Reference: record-at-a-time observe(), which fills the pending
    // batches row by row.
    const PipelineOutcome reference = pipeline_outcome(packets, config, {});
    EXPECT_TRUE(reference.same_output(serial)) << shards << " shards";
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7},
                                         std::size_t{256}, std::size_t{4096}}) {
      config.batch_size = batch_size;
      const PipelineOutcome got = pipeline_outcome(packets, config, ragged);
      SCOPED_TRACE(std::to_string(shards) + " shards, batch_size " +
                   std::to_string(batch_size));
      EXPECT_TRUE(got.same_output(reference));
      EXPECT_EQ(got.mid_checkpoint, reference.mid_checkpoint);
      EXPECT_EQ(got.final_checkpoint, reference.final_checkpoint);
    }
    // Supervised: every shard's worker dies once mid-stream and heals by
    // snapshot restore plus replay of the scattered batches.
    config.batch_size = 7;
    config.supervisor.enabled = true;
    config.supervisor.snapshot_interval = 4;
    config.supervisor.backoff_base = std::chrono::microseconds(1);
    config.supervisor.backoff_cap = std::chrono::microseconds(50);
    std::vector<std::atomic<bool>> killed(shards);
    config.supervisor.fault_hook = [&killed](std::size_t shard, std::uint64_t seq) {
      if (seq == 9 && !killed[shard].exchange(true)) {
        throw std::runtime_error("injected worker death");
      }
    };
    const PipelineOutcome healed = pipeline_outcome(packets, config, ragged);
    EXPECT_EQ(healed.restarts, shards) << shards << " shards";
    EXPECT_TRUE(healed.same_output(reference)) << shards << " shards";
    EXPECT_EQ(without_restart_ledger(healed.final_checkpoint),
              without_restart_ledger(reference.final_checkpoint))
        << shards << " shards";
  }
}

}  // namespace
}  // namespace orion
