// The OQP1 query mix every workload's client draws from, and the seeded
// random source the benchmark uses for all its own choices.
//
// The mix: FlowImpact probes carrying the real D1/D2/D3 lists of the
// chain's reference pass, one per (router, day, definition) as the
// paper-table benches query (bench_table2_impact: every router x day
// with a definition's list), with Zipf-skewed (router, day) cells, so
// co-arriving identical probes give the daemon's batching something to
// share; small 32-source probes whose compute is negligible, so the wire
// and the event loop show on their own; and StoreInfo / Ping.
#pragma once

#include <cstdint>
#include <vector>

#include "chain.hpp"
#include "orion/serve/protocol.hpp"

namespace perfbench {

/// splitmix64: a portable, seedable stream (the same on every platform
/// and standard library, unlike std::*_distribution).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  // [0, 1)
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

struct QueryMix {
  std::vector<serve::QueryRequest> requests;  // distinct requests
  std::vector<std::vector<std::uint8_t>> frames;  // framed encode_request
  std::vector<double> cdf;  // cumulative selection probability

  std::size_t pick(double u) const;
  /// Mean sources per FlowImpact request, weighted by selection.
  double mean_probe_sources() const;
};

QueryMix build_mix(const Chain& chain, std::uint64_t seed);

}  // namespace perfbench
