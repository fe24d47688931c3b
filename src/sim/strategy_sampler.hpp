// Per-request quorum selection for the queueing engine — one sampler per
// access-strategy family of the paper:
//   * closest  — each client's argmin-network-delay quorum, precomputed
//                (deterministic, no rng draw);
//   * balanced — uniform over all quorums, drawn analytically per request
//                via QuorumSystem::sample_quorum;
//   * explicit — per-client distributions over a shared quorum list (the
//                LP-optimized strategies of §4.2), sampled by inverse CDF.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::sim {

class QuorumSampler {
 public:
  enum class Kind { Closest, Balanced, Explicit };

  [[nodiscard]] static QuorumSampler closest(const net::LatencySpace& space,
                                             const quorum::QuorumSystem& system,
                                             const core::Placement& placement);
  [[nodiscard]] static QuorumSampler balanced(const quorum::QuorumSystem& system);
  /// Shares the strategy's quorum table and converts the per-client rows to
  /// CDFs; validates against client_count / the system's universe.
  [[nodiscard]] static QuorumSampler explicit_strategy(
      const core::ExplicitStrategy& strategy, std::size_t client_count,
      const quorum::QuorumSystem& system);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  /// The quorum `client` uses for this request. Balanced and explicit write
  /// it into `scratch` and return that; closest returns a reference into the
  /// sampler's precomputed choices (valid for the sampler's lifetime). One
  /// sampler may serve concurrent replications: draw() is const and all
  /// mutable state lives in the caller's rng/scratch.
  [[nodiscard]] const quorum::Quorum& draw(std::size_t client, common::Rng& rng,
                                           quorum::Quorum& scratch) const;

 private:
  explicit QuorumSampler(Kind kind) : kind_(kind) {}

  Kind kind_;
  const quorum::QuorumSystem* system_ = nullptr;  // Balanced only.
  std::vector<quorum::Quorum> chosen_;                // Closest: one per client.
  std::shared_ptr<const quorum::QuorumTable> table_;  // Explicit.
  std::vector<std::vector<double>> cdf_;              // Explicit: per-client CDF rows.
};

}  // namespace qp::sim
