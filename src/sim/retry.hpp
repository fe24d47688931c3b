// Retry/timeout policy and failure suspicion: the request-recovery
// machinery of the queueing engine (sim/engine), for open- and closed-loop
// clients alike: a per-request timeout arms each attempt,
// expired attempts retry on a fresh quorum after exponential backoff with
// deterministic jitter (all randomness through the caller's common::Rng
// stream, so runs stay bit-identical for any thread count), and sites that
// failed to reply before the timeout land on a suspicion list that failover
// quorum re-choice consults until the suspicion expires. Backoff base 0 is
// the §3 closed-loop client's immediate retry.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace qp::sim {

/// Per-request timeout + bounded-retry policy. timeout_ms == 0 disables the
/// machinery entirely (the legacy immediate-failure semantics).
struct RetryPolicy {
  /// An attempt whose quorum has not fully replied after this long is
  /// abandoned and retried (or given up after max_attempts). 0 = disabled.
  double timeout_ms = 0.0;
  /// Total attempts per request, first included. >= 1.
  std::size_t max_attempts = 4;
  /// Backoff before retry k (k >= 2): min(base * 2^(k-2), max), plus up to
  /// jitter_frac of itself drawn uniformly. base 0 = immediate retries.
  double backoff_base_ms = 0.0;
  double backoff_max_ms = 1'000.0;
  double jitter_frac = 0.0;  // In [0, 1].

  [[nodiscard]] bool enabled() const noexcept { return timeout_ms > 0.0; }

  /// Throws std::invalid_argument on negative/non-finite fields, a zero
  /// max_attempts, or jitter_frac outside [0, 1].
  void validate() const;

  /// Delay before the next attempt, given `attempts_used` attempts already
  /// spent (>= 1). Draws one uniform from `rng` only when jitter applies.
  [[nodiscard]] double backoff_delay(std::size_t attempts_used, common::Rng& rng) const;
};

/// Sites suspected down, each suspicion expiring ttl_ms after it was (last)
/// raised. The failover re-choice penalizes suspected sites; expiry keeps a
/// recovered site usable without an explicit "up" signal.
class SuspicionList {
 public:
  SuspicionList() = default;
  SuspicionList(std::size_t site_count, double ttl_ms)
      : until_(site_count, -1.0), ttl_ms_(ttl_ms) {}

  void suspect(std::size_t site, double now) { until_[site] = now + ttl_ms_; }
  [[nodiscard]] bool suspected(std::size_t site, double now) const noexcept {
    return until_[site] > now;
  }
  /// Sites suspected at `now` — an O(sites) scan, meant for measurement
  /// probes, not the per-attempt hot path.
  [[nodiscard]] std::size_t suspected_count(double now) const noexcept {
    std::size_t count = 0;
    for (double until : until_) count += until > now ? 1 : 0;
    return count;
  }

 private:
  std::vector<double> until_;  // Suspicion expiry per site; -1 = never raised.
  double ttl_ms_ = 0.0;
};

}  // namespace qp::sim
