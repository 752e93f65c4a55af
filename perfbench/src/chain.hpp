// The benchmark's set-up: the whole packets -> AH lists -> served answers
// chain, built once per set-up from the workload seed.
//
//   scenario (paper-scaled) -> packet stream (scangen, day-edge-cut
//   PacketBatch arenas) -> reference pass (ParallelPipeline) -> border
//   flows (flowsim) -> generation 1 published (events ODE2 + flows FDE1)
//   -> orion_serve daemon watching the archive.
//
// Every workload builds the same chain and times a different part of it,
// so every layer has figures on every workload: the parts a workload does
// not time are set-up work.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "orion/flowsim/flows.hpp"
#include "orion/packet/batch.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/serve/daemon.hpp"
#include "orion/serve/store_cache.hpp"
#include "orion/store/archive.hpp"
#include "orion/telescope/parallel.hpp"

namespace perfbench {

/// Fixed benchmark settings (recorded in perfbench/HOST.json).
constexpr std::size_t kBatchPackets = 4096;  // records per observe_batch call
constexpr std::size_t kDaemonWorkers = 1;  // busy threads stay below nproc
constexpr int kPollMs = 10;                  // daemon manifest poll period
constexpr std::size_t kSetups = 3;           // set-ups per run (setup_s median)

/// What one workload's chain holds.
struct Plan {
  std::int64_t days = 2;   // simulated days in the packet stream
  std::size_t shards = 1;  // pipeline shards of the workload's passes
};

/// A packet stream cut at UTC day edges into PacketBatch arenas.
struct Stream {
  std::vector<std::vector<pkt::PacketBatch>> days;
  std::uint64_t packets = 0;
};

/// One pass of packets through ParallelPipeline, timed from the first
/// observe_batch call until finish() returns the merged lists.
struct Pass {
  std::optional<telescope::ParallelResult> result;
  std::uint64_t packets = 0;
  double seconds = 0;
  double observe_s = 0;               // summed time inside observe_batch
  double finish_s = 0;                // finish(): join plus merge
  std::vector<double> observe_us;     // each observe_batch call
  Clock::time_point last_observe_end;
};

/// A published generation and its artifacts.
struct Published {
  std::uint64_t generation = 0;
  store::ManifestEntry events;
  store::ManifestEntry flows;
  double publish_ms = 0;
  double ode2_write_ms = 0;
  double fde1_write_ms = 0;
};

/// Wall seconds of each set-up step.
struct SetupTimes {
  double scenario_s = 0;
  double scangen_s = 0;
  double pass_s = 0;
  double flowsim_s = 0;
  double publish_s = 0;
  double daemon_s = 0;
  double total_s = 0;
};

class Chain {
 public:
  /// Builds the whole chain; `archive_dir` is emptied first.
  Chain(Plan plan, std::uint64_t seed, std::string archive_dir);
  ~Chain();

  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  const Plan& plan() const { return plan_; }
  std::uint64_t seed() const { return seed_; }
  const scangen::Scenario& scenario() const { return scenario_; }
  const Stream& stream() const { return stream_; }
  const flowsim::FlowDataset& flows() const { return *flows_; }
  /// The set-up pass at plan().shards: the real D1/D2/D3 lists.
  const telescope::ParallelResult& reference() const { return *reference_; }
  const Published& initial() const { return initial_; }
  const std::string& archive_dir() const { return archive_dir_; }
  serve::Daemon& daemon() { return *daemon_; }
  const SetupTimes& times() const { return times_; }

  telescope::ParallelConfig pipeline_config(std::size_t shards) const;

  /// CRC of every packet column and the flow archive bytes: two set-ups
  /// from one seed must agree.
  std::uint64_t input_fingerprint() const;

 private:
  Plan plan_;
  std::uint64_t seed_;
  std::string archive_dir_;
  SetupTimes times_;
  scangen::Scenario scenario_;
  Stream stream_;
  std::optional<telescope::ParallelResult> reference_;
  std::optional<flowsim::FlowDataset> flows_;
  Published initial_;
  std::unique_ptr<serve::Daemon> daemon_;
};

/// Generates days [0, days) of the paper-scaled 2021 population's
/// darknet packets, cut at day edges into kBatchPackets-record batches.
Stream generate_stream(const scangen::Scenario& scenario, std::int64_t days,
                       std::uint64_t seed);

/// Paper-scaled border flows for days [0, days) (Merit-like peering,
/// 1:100 sampling).
flowsim::FlowDataset generate_border_flows(const scangen::Scenario& scenario,
                                           std::int64_t days,
                                           std::uint64_t seed);

/// Feeds `batches` (in order) through a fresh ParallelPipeline.
Pass run_pass(const scangen::Scenario& scenario,
              const telescope::ParallelConfig& config,
              const std::vector<const pkt::PacketBatch*>& batches);

/// Every batch of every day, in stream order.
std::vector<const pkt::PacketBatch*> all_batches(const Stream& stream);
std::vector<const pkt::PacketBatch*> day_batches(const Stream& stream,
                                                 std::size_t day);

/// Publishes events ODE2 + flows FDE1 under one manifest commit.
Published publish_generation(store::ArchiveDir& archive,
                             const telescope::EventDataset& events,
                             const flowsim::FlowDataset& flows);

/// Loads a query-ready snapshot of the archive's live generation.
std::shared_ptr<const serve::StoreSnapshot> load_live_snapshot(
    const std::string& archive_dir);

}  // namespace perfbench
