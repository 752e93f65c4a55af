#include "gates.hpp"

#include <algorithm>
#include <vector>

#include "trace.hpp"

namespace perfbench {

namespace {

void digest_event(Digest& d, const telescope::DarknetEvent& e) {
  d.u64(e.key.src.value());
  d.u64(e.key.dst_port);
  d.u64(static_cast<std::uint64_t>(e.key.type));
  d.u64(static_cast<std::uint64_t>(e.start.since_epoch().total_nanos()));
  d.u64(static_cast<std::uint64_t>(e.end.since_epoch().total_nanos()));
  d.u64(e.packets);
  d.u64(e.unique_dests);
  for (const std::uint64_t p : e.packets_by_tool) d.u64(p);
}

void digest_ips(Digest& d, std::vector<net::Ipv4Address> ips) {
  std::sort(ips.begin(), ips.end());
  d.u64(ips.size());
  for (const net::Ipv4Address ip : ips) d.u64(ip.value());
}

}  // namespace

std::uint64_t result_digest(const telescope::ParallelResult& result) {
  Digest d;
  d.u64(result.dataset.event_count());
  for (const telescope::DarknetEvent& e : result.dataset.events()) digest_event(d, e);
  d.u64(result.days.size());
  for (const detect::StreamingDayResult& day : result.days) {
    d.u64(static_cast<std::uint64_t>(day.day));
    d.u64(day.calibrated ? 1 : 0);
    d.u64(day.packet_threshold);
    d.u64(day.port_threshold);
    for (const auto& list : day.daily) digest_ips(d, list);
  }
  for (const detect::IpSet& ips : result.ips) {
    digest_ips(d, {ips.begin(), ips.end()});
  }
  return d.value();
}

VerifyReport verify_responses(const ResponseLog& log, const QueryMix& mix,
                              const BackendFor& backend_for) {
  VerifyReport report;
  for (const ResponseLog::Entry& e : log.entries()) {
    report.responses += e.count;
    const std::optional<serve::EngineBackend> backend = backend_for(e.generation);
    if (!backend) {
      report.unknown_generation += e.count;
      if (report.first_problem.empty()) {
        report.first_problem = "response claims unknown generation " +
                               std::to_string(e.generation);
      }
      continue;
    }
    std::vector<std::uint8_t> expected;
    {
      trace::Span span("serve.execute_query_bytes");
      expected = serve::execute_query_bytes(mix.requests.at(e.request), *backend);
    }
    if (expected != e.payload) {
      report.mismatched += e.count;
      if (report.first_problem.empty()) {
        report.first_problem = "byte mismatch on request " + std::to_string(e.request) +
                               " generation " + std::to_string(e.generation);
      }
    }
  }
  return report;
}

bool self_test(const telescope::ParallelResult& reference, const QueryMix& mix,
               const serve::EngineBackend& backend, std::string& detail) {
  bool ok = true;
  const auto fail = [&](const std::string& what) {
    ok = false;
    detail += (detail.empty() ? "" : "; ") + what;
  };

  // 1. A perturbed dataset must not digest like the reference.
  {
    std::vector<telescope::DarknetEvent> events = reference.dataset.events();
    telescope::ParallelResult perturbed{
        telescope::EventDataset({}, reference.dataset.darknet_size()),
        reference.days, reference.ips, reference.health};
    if (!events.empty()) events.front().packets += 1;
    perturbed.dataset = telescope::EventDataset(std::move(events),
                                                reference.dataset.darknet_size());
    if (result_digest(perturbed) == result_digest(reference)) {
      fail("digest gate did not trip on a perturbed event");
    }
  }

  // 2 and 3. The response gate on a correct, a flipped and a
  // wrong-generation copy of a real response.
  const std::size_t request = 0;
  const std::vector<std::uint8_t> good =
      serve::execute_query_bytes(mix.requests.at(request), backend);
  const std::uint64_t generation = backend.generation;
  const BackendFor backend_for =
      [&](std::uint64_t g) -> std::optional<serve::EngineBackend> {
    if (g == generation) return backend;
    return std::nullopt;
  };
  const auto run = [&](const std::vector<std::uint8_t>& payload,
                       std::uint64_t claimed) {
    ResponseLog log;
    log.add(request, claimed, payload.data(), payload.size());
    return verify_responses(log, mix, backend_for);
  };
  if (run(good, generation).failed() != 0) fail("gate rejected a correct response");
  std::vector<std::uint8_t> flipped = good;
  flipped.back() ^= 0x01;
  if (run(flipped, generation).mismatched != 1) {
    fail("byte gate did not trip on a flipped byte");
  }
  std::vector<std::uint8_t> forged = good;
  const std::uint64_t missing = generation + 1000003;
  for (int i = 0; i < 8; ++i) {
    forged[6 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(missing >> (8 * i));
  }
  if (run(forged, missing).unknown_generation != 1) {
    fail("generation gate did not trip on a generation that does not exist");
  }
  return ok;
}

}  // namespace perfbench
