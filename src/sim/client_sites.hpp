// Client-site selection matching §3's methodology: "we computed a set of 10
// client locations for which the average network delay to the server
// placement approximates the average network delay from all the nodes of
// the graph to the server placement well."
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/placement.hpp"
#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::sim {

/// Chooses `count` sites whose uniform-strategy expected network delays to
/// the placement bracket the all-sites average: sites are ranked by
/// |Delta_v - avg_v Delta_v| and the closest `count` are returned (sorted by
/// site index). Throws if count exceeds the site count.
[[nodiscard]] std::vector<std::size_t> representative_client_sites(
    const net::LatencySpace& space, const quorum::QuorumSystem& system,
    const core::Placement& placement, std::size_t count);

/// The sim/engine input that puts closed-loop clients at `sites`: one entry
/// per site, 1 at each client site and 0 elsewhere
/// (EngineConfig::closed_loop_clients sets how many clients each hosts).
/// Throws std::out_of_range for a site >= site_count.
[[nodiscard]] std::vector<double> client_site_mask(std::size_t site_count,
                                                   std::span<const std::size_t> sites);

}  // namespace qp::sim
