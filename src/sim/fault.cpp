#include "sim/fault.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.hpp"

namespace qp::sim {

namespace {

void validate_process(const FaultProcess& process, const char* which) {
  if (process.mttf_ms < 0.0 || process.mttr_ms < 0.0 ||
      !std::isfinite(process.mttf_ms) || !std::isfinite(process.mttr_ms)) {
    throw std::invalid_argument{std::string{"FaultInjector: "} + which +
                                " MTTF/MTTR must be finite and >= 0"};
  }
  if (process.enabled() && !(process.mttr_ms > 0.0)) {
    throw std::invalid_argument{std::string{"FaultInjector: "} + which +
                                " process needs a positive MTTR"};
  }
}

/// Down windows of one alternating exponential renewal process on
/// [0, horizon), clipped to the horizon. Started stationary: the process
/// begins mid-outage with probability MTTR / (MTTF + MTTR), and by
/// memorylessness the residual down (or up) time keeps the exponential law.
std::vector<std::pair<double, double>> renewal_windows(const FaultProcess& process,
                                                       double horizon_ms,
                                                       common::Rng& rng) {
  std::vector<std::pair<double, double>> windows;
  double t = 0.0;
  if (rng.uniform() < process.steady_state_down()) {
    const double end = rng.exponential(process.mttr_ms);
    if (std::min(end, horizon_ms) > 0.0) {
      windows.emplace_back(0.0, std::min(end, horizon_ms));
    }
    t = end;
  }
  while (t < horizon_ms) {
    t += rng.exponential(process.mttf_ms);
    if (t >= horizon_ms) break;
    const double end = t + rng.exponential(process.mttr_ms);
    windows.emplace_back(t, std::min(end, horizon_ms));
    t = end;
  }
  return windows;
}

}  // namespace

FaultProcess FaultProcess::for_down_probability(double down_prob, double mttr_ms) {
  if (!(down_prob > 0.0) || !(down_prob < 1.0) || !(mttr_ms > 0.0)) {
    throw std::invalid_argument{
        "FaultProcess::for_down_probability: need 0 < p < 1 and mttr > 0"};
  }
  return FaultProcess{mttr_ms * (1.0 - down_prob) / down_prob, mttr_ms};
}

FaultInjector::FaultInjector(FaultInjectorConfig config) : config_(std::move(config)) {
  if (!(config_.horizon_ms > 0.0) || !std::isfinite(config_.horizon_ms)) {
    throw std::invalid_argument{"FaultInjector: horizon_ms must be positive and finite"};
  }
  validate_process(config_.site, "site");
  validate_process(config_.regional, "regional");
}

std::vector<ServerOutage> FaultInjector::schedule(std::size_t site_count) const {
  std::vector<ServerOutage> outages;
  if (config_.site.enabled()) {
    for (std::size_t site = 0; site < site_count; ++site) {
      common::Rng rng{fault_stream_seed(config_.seed, 2 * site)};
      for (const auto& [start, end] :
           renewal_windows(config_.site, config_.horizon_ms, rng)) {
        outages.push_back({site, start, end});
      }
    }
  }
  if (config_.regional.enabled() && !config_.site_region.empty()) {
    if (config_.site_region.size() < site_count) {
      throw std::invalid_argument{
          "FaultInjector: site_region shorter than the site count"};
    }
    const std::size_t regions =
        1 + *std::max_element(config_.site_region.begin(),
                              config_.site_region.begin() +
                                  static_cast<std::ptrdiff_t>(site_count));
    for (std::size_t region = 0; region < regions; ++region) {
      common::Rng rng{fault_stream_seed(config_.seed, 2 * region + 1)};
      const auto windows = renewal_windows(config_.regional, config_.horizon_ms, rng);
      if (windows.empty()) continue;
      for (std::size_t site = 0; site < site_count; ++site) {
        if (config_.site_region[site] != region) continue;
        for (const auto& [start, end] : windows) outages.push_back({site, start, end});
      }
    }
  }
  return outages;
}

double FaultInjector::steady_state_down() const noexcept {
  const double site = config_.site.steady_state_down();
  const double regional =
      config_.site_region.empty() ? 0.0 : config_.regional.steady_state_down();
  return 1.0 - (1.0 - site) * (1.0 - regional);
}

std::uint64_t fault_stream_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  // The (stream+1)-th SplitMix64 output of the chain seeded by `seed` — the
  // same chain shape as sim::replication_seed, jumped in O(1) (SplitMix64
  // advances its state by the golden-ratio increment once per output).
  std::uint64_t state = seed + stream * 0x9e3779b97f4a7c15ULL;
  return common::splitmix64(state);
}

std::vector<std::size_t> region_partition(std::span<const net::SiteLocation> sites) {
  std::vector<std::size_t> ids;
  ids.reserve(sites.size());
  std::vector<std::string> names;  // Numbered by first appearance.
  for (const net::SiteLocation& site : sites) {
    const auto it = std::find(names.begin(), names.end(), site.region);
    if (it == names.end()) {
      ids.push_back(names.size());
      names.push_back(site.region);
    } else {
      ids.push_back(static_cast<std::size_t>(it - names.begin()));
    }
  }
  return ids;
}

}  // namespace qp::sim
