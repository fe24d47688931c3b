// Seeded, deterministic fault injection for the discrete-event engine.
//
// A FaultInjector turns a crash/recovery model into concrete per-site
// ServerOutage windows the engine (sim/engine) already understands:
//   * independent per-site crashes — an alternating renewal process with
//     exponential time-to-failure (MTTF) and time-to-repair (MTTR),
//     started in its stationary distribution so the long-run down
//     probability MTTR / (MTTF + MTTR) holds from time zero;
//   * correlated regional failures — the same renewal process drawn once
//     per region (sim/scenario's world-template regions, via
//     region_partition) and applied to every site of the region at once,
//     the failure mode that actually separates placements: i.i.d. site
//     failures hit any one-to-one placement equally, whereas a regional
//     blackout takes out exactly the colocated quorum elements.
//
// Determinism: every site and region derives its own rng stream from the
// injector seed through the same SplitMix64 chain the engine uses for
// replication fan-out (fault_stream_seed), so schedules are bit-identical
// regardless of thread count or generation order, and any single stream can
// be reproduced in isolation by tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/synthetic.hpp"
#include "sim/service_queue.hpp"

namespace qp::sim {

/// One crash/recovery renewal process: exponential up times with mean
/// mttf_ms alternating with exponential down times with mean mttr_ms.
/// mttf_ms == 0 disables the process.
struct FaultProcess {
  double mttf_ms = 0.0;
  double mttr_ms = 0.0;

  [[nodiscard]] bool enabled() const noexcept { return mttf_ms > 0.0; }
  /// Stationary down probability mttr / (mttf + mttr); 0 when disabled.
  [[nodiscard]] double steady_state_down() const noexcept {
    return enabled() ? mttr_ms / (mttf_ms + mttr_ms) : 0.0;
  }
  /// The process whose stationary down probability is `down_prob` with the
  /// given repair scale: mttf = mttr * (1 - p) / p.
  [[nodiscard]] static FaultProcess for_down_probability(double down_prob,
                                                        double mttr_ms);
};

struct FaultInjectorConfig {
  std::uint64_t seed = 20070601;
  /// Windows are generated inside [0, horizon_ms); a crash straddling the
  /// horizon is clipped to it (sites recover once injection ends, so a
  /// draining simulation always terminates).
  double horizon_ms = 25'000.0;
  /// Independent per-site crash/recovery process (same law at every site).
  FaultProcess site{};
  /// Correlated whole-region crash/recovery process; requires site_region.
  FaultProcess regional{};
  /// Per-site region id for the regional process (region_partition); empty
  /// means no regional correlation even when `regional` is enabled.
  std::vector<std::size_t> site_region;
};

class FaultInjector {
 public:
  /// Throws std::invalid_argument on a non-positive horizon, a process with
  /// mttf > 0 but mttr <= 0, or an enabled regional process whose
  /// site_region vector is shorter than a site index it is asked about.
  explicit FaultInjector(FaultInjectorConfig config);

  /// The compiled outage windows for sites [0, site_count): per-site
  /// windows first (site-major, ascending), then regional windows expanded
  /// onto member sites. Deterministic in the config seed alone; const and
  /// safe to call concurrently. OutageSchedule merges any overlap.
  [[nodiscard]] std::vector<ServerOutage> schedule(std::size_t site_count) const;

  [[nodiscard]] const FaultInjectorConfig& config() const noexcept { return config_; }

  /// Stationary per-site down probability under both processes (site down =
  /// site process down OR its region down; independent processes).
  [[nodiscard]] double steady_state_down() const noexcept;

 private:
  FaultInjectorConfig config_;
};

/// The stream-`index` rng seed of a fault injector's SplitMix64 chain —
/// streams 2k seed site k's process, streams 2k+1 seed region k's, so site
/// and region streams never collide. Exposed for reproduction in tests.
// qp-lint: allow(test-only-export) -- schedule()'s seed chain; tests pin it against SplitMix64
[[nodiscard]] std::uint64_t fault_stream_seed(std::uint64_t seed,
                                              std::uint64_t stream) noexcept;

/// Per-site region ids for FaultInjectorConfig::site_region: region names
/// are numbered by first appearance over `sites` (deterministic). Empty
/// input (dataset-backed scenarios without coordinates) yields empty ids.
[[nodiscard]] std::vector<std::size_t> region_partition(
    std::span<const net::SiteLocation> sites);

}  // namespace qp::sim
