#include "mix.hpp"

#include <algorithm>
#include <cmath>

#include "orion/flowsim/routing.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

// Selection shares of the request classes. No trace of real operator
// queries exists to derive them from, so they are assumptions (see
// perfbench/README.md): list probes, the paper's product joined against
// router flows, are the majority; the small probes are a large enough
// share that wire- and event-loop-bound requests move the p50; StoreInfo
// and Ping are the occasional discovery and health calls of a client.
constexpr double kListShare = 0.60;   // FlowImpact with a real AH list
constexpr double kSmallShare = 0.30;  // FlowImpact with 32 sources
constexpr double kInfoShare = 0.05;   // StoreInfo
constexpr double kPingShare = 0.05;   // Ping
// Cell popularity: Zipf's law in its classic form (exponent 1). Also an
// assumption; the exponent only sets how often identical probes co-arrive.
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kSmallSources = 32;

std::vector<net::Ipv4Address> sorted_list(const detect::IpSet& ips) {
  std::vector<net::Ipv4Address> out(ips.begin(), ips.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

std::size_t QueryMix::pick(double u) const {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               requests.size() - 1);
}

double QueryMix::mean_probe_sources() const {
  double weighted = 0, weight = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].kind != serve::QueryKind::FlowImpact) continue;
    const double p = cdf[i] - (i == 0 ? 0.0 : cdf[i - 1]);
    weighted += p * static_cast<double>(requests[i].sources.size());
    weight += p;
  }
  return weight == 0 ? 0 : weighted / weight;
}

QueryMix build_mix(const Chain& chain, std::uint64_t seed) {
  Rng rng(seed ^ 0x6d69785f71756572ull);
  const telescope::ParallelResult& ref = chain.reference();
  std::vector<std::vector<net::Ipv4Address>> lists;
  for (const detect::IpSet& ips : ref.ips) {
    if (!ips.empty()) lists.push_back(sorted_list(ips));
  }

  // Zipf weights over (router, day) cells in a seeded order, so which
  // cell is hot changes with the seed but the skew does not.
  struct Cell {
    std::uint32_t router;
    std::int64_t day;
  };
  std::vector<Cell> cells;
  for (std::uint32_t r = 0; r < flowsim::kRouterCount; ++r) {
    for (std::int64_t d = chain.flows().start_day(); d < chain.flows().end_day();
         ++d) {
      cells.push_back({r, d});
    }
  }
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.next() % i]);
  }
  std::vector<double> cell_weight(cells.size());
  double zipf_total = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cell_weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    zipf_total += cell_weight[i];
  }

  const auto& scanners = chain.scenario().population_2021().scanners;
  QueryMix mix;
  std::vector<double> weights;
  const auto add = [&](serve::QueryRequest request, double weight) {
    request.tenant = "perfbench";
    mix.requests.push_back(std::move(request));
    weights.push_back(weight);
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double cell_share = cell_weight[i] / zipf_total;
    for (const auto& list : lists) {
      serve::QueryRequest r;
      r.kind = serve::QueryKind::FlowImpact;
      r.router = cells[i].router;
      r.day = cells[i].day;
      r.sources = list;
      add(std::move(r), kListShare * cell_share / static_cast<double>(lists.size()));
    }
    serve::QueryRequest small;
    small.kind = serve::QueryKind::FlowImpact;
    small.router = cells[i].router;
    small.day = cells[i].day;
    for (std::size_t k = 0; k < kSmallSources; ++k) {
      small.sources.push_back(scanners[rng.next() % scanners.size()].source);
    }
    add(std::move(small), kSmallShare * cell_share);
  }
  serve::QueryRequest info;
  info.kind = serve::QueryKind::StoreInfo;
  add(info, kInfoShare);
  serve::QueryRequest ping;
  ping.kind = serve::QueryKind::Ping;
  add(ping, kPingShare);

  double total = 0;
  for (const double w : weights) total += w;
  double acc = 0;
  for (const double w : weights) {
    acc += w / total;
    mix.cdf.push_back(acc);
  }
  for (const serve::QueryRequest& r : mix.requests) {
    trace::Span span("serve.encode_request");
    std::vector<std::uint8_t> frame;
    serve::append_frame(frame, serve::encode_request(r));
    mix.frames.push_back(std::move(frame));
  }
  return mix;
}

}  // namespace perfbench
