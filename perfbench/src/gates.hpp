// Always-on correctness gates, and the self-test showing each one trips.
//
//   - ingest: the merged dataset and D1/D2/D3 results digest identically
//     at 1 shard and at the workload's shard count;
//   - query / refresh: every response is byte-identical to
//     serve::execute_query_bytes on a snapshot of the generation it claims.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "loadgen.hpp"
#include "mix.hpp"
#include "orion/serve/engine.hpp"
#include "orion/telescope/parallel.hpp"

namespace perfbench {

/// Digest of the merged dataset, the per-day results and the D1/D2/D3 sets.
std::uint64_t result_digest(const telescope::ParallelResult& result);

/// The engine backend answering for a generation; nullopt when the
/// generation was never published.
using BackendFor =
    std::function<std::optional<serve::EngineBackend>(std::uint64_t generation)>;

struct VerifyReport {
  std::uint64_t responses = 0;       // responses checked (with repeats)
  std::uint64_t mismatched = 0;      // bytes differ from the direct execution
  std::uint64_t unknown_generation = 0;
  std::string first_problem;

  std::uint64_t failed() const { return mismatched + unknown_generation; }
};

VerifyReport verify_responses(const ResponseLog& log, const QueryMix& mix,
                              const BackendFor& backend_for);

/// Feeds each gate a deliberately wrong input: a perturbed dataset
/// digest, a response with one byte flipped, and a response claiming a
/// generation that does not exist. True when every gate trips.
bool self_test(const telescope::ParallelResult& reference, const QueryMix& mix,
               const serve::EngineBackend& backend, std::string& detail);

}  // namespace perfbench
