// Capacity-tuning techniques of §7. The paper treats cap(v) not as a
// physical limit but as a *tuning knob* passed to the access-strategy LP:
// lower capacities force the LP to spread load (good under high demand),
// higher capacities let clients concentrate on nearby quorums (good under
// low demand).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/latency_space.hpp"

namespace qp::core {

/// The sweep levels of (7.7): c_i = L_opt + i * (1 - L_opt) / count for
/// i = 1..count. Requires 0 < l_opt <= 1.
[[nodiscard]] std::vector<double> uniform_capacity_levels(double l_opt,
                                                          std::size_t count = 10);

/// §7 "Non-uniform node capacities": capacities inversely proportional to
/// the support node's average distance s_i to all clients, mapped affinely
/// into [beta, gamma]:
///   cap(v_i) = (1/s_i - le) / (re - le) * (gamma - beta) + beta
/// where le/re are the min/max of 1/s_i over the support set. Sites outside
/// the support set receive gamma (they carry no load, so the value is
/// irrelevant to the LP). If all s_i are equal every support site gets gamma.
[[nodiscard]] std::vector<double> nonuniform_capacities(const net::LatencySpace& space,
                                                        std::span<const std::size_t> support,
                                                        double beta, double gamma);

/// Uniform capacity vector (every site gets `level`).
[[nodiscard]] std::vector<double> uniform_capacities(std::size_t site_count, double level);

}  // namespace qp::core
