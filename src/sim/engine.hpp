// Discrete-event queueing engine — the simulation counterpart of the
// analytic §4/§6/§7 response-time objectives and the stand-in for the §3
// Q/U-on-Modelnet testbed.
//
// Model: clients issue quorum operations, each picks a quorum by the
// configured access strategy (closest / balanced / explicit LP
// distributions), sends one message per quorum element, and completes when
// the last reply returns. A message reaches server site f(u) after rtt/2,
// waits in the site's FIFO queue (optionally finite: overflow is dropped),
// is served for a deterministic or exponential service time by the single
// server core, and the reply takes another rtt/2. Scheduled ServerOutages
// (hand-written or compiled by sim/fault's FaultInjector) drop messages
// arriving in their window. RTTs are read from any net::LatencySpace — a
// dense LatencyMatrix or an implicit LatencyEmbedding.
//
// Two client models drive the same machinery (Schroeder, Wierman &
// Harchol-Balter, "Open Versus Closed: A Cautionary Tale", NSDI 2006):
//  * open loop (the default; §4/§6/§7 validation): one client per site
//    issues a Poisson (or bursty MMPP) stream at its configured rate,
//    independent of how fast requests complete;
//  * closed loop (EngineConfig::closed_loop_clients = k > 0; the §3 Q/U
//    experiments): k clients per client site, each with one request
//    outstanding — it issues the next the moment the current one
//    completes, fails, or is abandoned. Load is then set by the client
//    count, and response time grows with it as the servers saturate.
//
// With the retry machinery enabled (EngineConfig::retry, sim/retry.hpp)
// the engine also models request recovery: per-attempt timeouts, bounded
// retries with exponential backoff + deterministic jitter, and failover
// quorum re-choice that penalizes suspected-down sites (FailoverMode), with
// accounting such that issued == completed + failed + abandoned holds under
// arbitrary fault schedules. Disabled (the default), behavior and rng
// consumption are bitwise identical to the pre-retry engine. The §3-style
// immediate retry on a fresh random quorum is RetryPolicy{timeout_ms,
// max_attempts} (backoff_base_ms = 0) under EngineStrategy::Balanced and
// FailoverMode::None.
//
// Where the analytic layer evaluates max_u(d(v, f(u)) + alpha * load) in
// closed form, the engine realizes the same system as a stochastic process,
// so predictions can be cross-validated under contention, demand skew,
// bursty arrivals, and outages (eval::sim_validation_sweep). At utilization
// rho -> 0 the simulated mean response converges to network delay +
// service; the analytic load term alpha * load_f(w) equals rho_w * S when
// alpha = S^2 * total arrival rate, the linear low-utilization queueing
// surrogate the validation sweep pins to 3%.
//
// Replications fan out deterministically over common/thread_pool: each
// replication derives its own rng stream from the master seed via a
// SplitMix64 chain (stream r = the r-th SplitMix64 output), results land in
// replication-indexed slots, and the reduction replays serial order — so
// results are bit-identical for any QP_THREADS. The fan-out is exercised
// under ThreadSanitizer by tests/race_stress_test.cpp (the `tsan` preset),
// including nested runs from inside a parallel_for worker.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"
#include "sim/arrivals.hpp"
#include "sim/retry.hpp"
#include "sim/service_queue.hpp"

namespace qp::sim {

enum class ServiceModel { Deterministic, Exponential };

enum class EngineStrategy { Closest, Balanced, Explicit };

/// How attempts re-choose their quorum when the retry machinery is on:
///  * None      — every attempt draws from the configured strategy;
///  * Suspicion — retries take the minimum-RTT quorum with suspected-down
///                sites (non-repliers of timed-out attempts, expiring after
///                suspicion_ttl_ms) penalized behind live ones; the first
///                attempt still uses the configured strategy;
///  * Oracle    — every attempt takes the minimum-RTT quorum with sites the
///                outage schedule marks down *right now* penalized — a
///                perfect failure detector, the simulation twin of the
///                analytic closest-live re-choice in
///                core::FailureAwareObjective (eval/sim_validation pins the
///                two against each other).
enum class FailoverMode { None, Suspicion, Oracle };

struct EngineConfig {
  double service_time_ms = 1.0;
  ServiceModel service_model = ServiceModel::Deterministic;
  /// Per-site queue limit (messages queued or in service); 0 = unbounded.
  /// Arrivals beyond the limit are rejected and counted.
  std::size_t queue_capacity = 0;

  /// Poisson, or the bursty two-phase MMPP of sim/arrivals.
  ArrivalModel arrival_model = ArrivalModel::Poisson;

  EngineStrategy strategy = EngineStrategy::Balanced;
  /// Required for EngineStrategy::Explicit (e.g. an optimize_access_strategy
  /// result); must outlive run_engine. EngineStrategy::Closest needs none:
  /// it samples core::closest_quorums, the choices ClosestStrategyObjective
  /// evaluates.
  const core::ExplicitStrategy* explicit_strategy = nullptr;

  /// Requests issued in [warmup_ms, warmup_ms + duration_ms) are measured;
  /// the simulation then drains completely.
  double warmup_ms = 2'000.0;
  double duration_ms = 20'000.0;

  std::uint64_t master_seed = 1;
  std::size_t replications = 3;

  /// Client model: 0 (the default) = open loop, client v issuing at
  /// arrival_rates_per_ms[v] by arrival_model. k > 0 = closed loop: every
  /// site with a positive rate hosts k clients (the rate's value and
  /// arrival_model are then unused). Each client starts at a uniform offset
  /// in [0, 1) ms and issues its next request the moment the current one
  /// completes, fails, or is abandoned, until warmup_ms + duration_ms.
  /// Closed loop with outages or a finite queue_capacity requires
  /// retry.enabled(): a lost message would otherwise fail the request and a
  /// client colocated with its quorum would re-issue at the same instant
  /// forever.
  std::size_t closed_loop_clients = 0;

  std::vector<ServerOutage> outages;

  /// Request-recovery machinery. Disabled (the default) reproduces the
  /// pre-retry semantics bitwise: a message lost to an outage or overflow
  /// fails its request immediately. Enabled, lost messages vanish silently;
  /// each attempt arms a timeout, expired attempts retry (bounded by
  /// max_attempts, after exponential backoff with deterministic jitter),
  /// and requests that exhaust their attempts count as `abandoned`.
  RetryPolicy retry{};
  /// Failover quorum re-choice; anything but None requires retry.enabled().
  FailoverMode failover = FailoverMode::None;
  /// Suspicion expiry for FailoverMode::Suspicion.
  double suspicion_ttl_ms = 2'000.0;

  /// Measurement-window time-series probes: > 0 samples the live state of
  /// every replication each probe_interval_ms from warmup_ms to the end of
  /// issue (EngineProbe rows in ReplicationResult::probes;
  /// write_engine_timeseries_csv exports them). Probe events are strictly
  /// read-only — they consume no randomness and touch no simulation state —
  /// so every result is bitwise identical with probing on or off. 0 (the
  /// default) disables probing. Independent of the QP_OBS metrics gate.
  double probe_interval_ms = 0.0;

  /// Pool for the replication fan-out; nullptr = the shared global pool.
  common::ThreadPool* pool = nullptr;
};

/// One sampled snapshot of a replication's live state (probe_interval_ms).
/// Instantaneous fields describe the probe instant; the counters are the
/// replication's cumulative windowed totals up to it, so deltas between
/// consecutive probes give per-interval rates (how the PR 7 metastable
/// retry-amplification regime *develops*, not just its end state).
struct EngineProbe {
  double t_ms = 0.0;
  std::size_t busy_sites = 0;         // Server cores working right now.
  double busy_fraction = 0.0;         // busy_sites / site count.
  std::size_t queued_messages = 0;    // Messages queued or in service, all sites.
  std::size_t inflight_requests = 0;  // Issued but not yet resolved.
  std::size_t suspected_sites = 0;    // Live suspicion-list entries.
  std::size_t issued = 0;             // Cumulative windowed counters.
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t abandoned = 0;
  std::size_t retries = 0;
};

/// Per-replication measurements; everything below is warm-up trimmed.
struct ReplicationResult {
  common::RunningStats response;  // Issue-to-last-reply, completed requests.
  common::RunningStats network;   // Max quorum RTT at issue time (unloaded response).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// Busy fraction of the measurement window per site.
  std::vector<double> site_utilization;
  std::size_t issued = 0;     // Requests issued inside the window.
  std::size_t completed = 0;  // ... of which all replies arrived.
  std::size_t failed = 0;     // ... of which lost a message to an outage/overflow.
  /// ... of which exhausted retry.max_attempts (retry machinery only; a
  /// windowed request is exactly one of completed / failed / abandoned).
  std::size_t abandoned = 0;
  std::size_t dropped_messages = 0;    // All outage drops, windowed or not.
  std::size_t rejected_arrivals = 0;   // All finite-queue overflows.
  std::size_t retries = 0;             // Retry attempts issued (beyond each first).
  /// Replies of admitted messages whose attempt timed out first: counted at
  /// the timeout for messages already admitted, at admission for the rest.
  std::size_t stale_replies = 0;
  /// Issue-to-completion of requests that needed more than one attempt
  /// (time-to-success through the retry path); subset of `response`.
  common::RunningStats retried_response;
  /// (failed + abandoned) / issued — the measured per-window fraction of
  /// requests that never got a full quorum of replies.
  double unavailability = 0.0;
  /// Give-up wall-clock (issue to last timeout / lost reply) of every
  /// windowed request that was never served — failed + abandoned — the
  /// degraded-mode twin of `response_samples`; ascending.
  std::vector<double> unserved_wait_ms;
  /// Response samples (completed, windowed), ascending — kept for pooled
  /// percentiles (run_engine merges the replications' runs) and
  /// distribution checks.
  std::vector<double> response_samples;
  /// Time-series snapshots (empty unless EngineConfig::probe_interval_ms).
  std::vector<EngineProbe> probes;
};

struct EngineResult {
  double mean_response_ms = 0.0;
  double mean_network_delay_ms = 0.0;
  double p50_ms = 0.0;  // Pooled across replications.
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// p99 over served AND unserved windowed requests, the latter scored at
  /// their give-up wall-clock. `p99_ms` alone has survivorship bias under
  /// faults: a placement that abandons every storm-time request drops them
  /// from the percentile entirely and can look *faster* than one that keeps
  /// serving through retries. Equals `p99_ms` when nothing fails.
  double degraded_p99_ms = 0.0;
  common::RunningStats response;           // Merged across replications.
  std::vector<double> site_utilization;    // Mean across replications.
  double peak_utilization = 0.0;           // Busiest site's mean utilization.
  std::size_t issued = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t abandoned = 0;
  std::size_t dropped_messages = 0;
  std::size_t rejected_arrivals = 0;
  std::size_t retries = 0;
  std::size_t stale_replies = 0;
  common::RunningStats retried_response;  // Merged across replications.
  double unavailability = 0.0;            // (failed + abandoned) / issued.
  std::vector<ReplicationResult> replications;
};

/// Runs the engine: client v issues at arrival_rates_per_ms[v] (one entry
/// per site; 0 = no client there), or — closed loop — the sites with a
/// positive entry host config.closed_loop_clients clients each.
/// Deterministic in config.master_seed for any thread count.
[[nodiscard]] EngineResult run_engine(const net::LatencySpace& space,
                                      const quorum::QuorumSystem& system,
                                      const core::Placement& placement,
                                      std::span<const double> arrival_rates_per_ms,
                                      const EngineConfig& config);

/// Scales per-client arrival rates so the busiest site reaches utilization
/// `peak_rho`. `site_load` is the per-access probability that a demand-
/// share-weighted request executes on each site (Objective::site_loads /
/// site_loads_closest / site_loads_balanced / site_loads_explicit with the
/// same demand shape as `rates`), so site w's arrival rate is
/// sum(rates) * site_load[w] and rho_w = that * service_time.
[[nodiscard]] std::vector<double> scale_rates_to_peak_utilization(
    std::span<const double> rates, std::span<const double> site_load,
    double service_time_ms, double peak_rho);

/// The replication-r rng seed of the engine's SplitMix64 chain seeded by
/// `master_seed` — exposed so tests can reproduce a single replication.
// qp-lint: allow(test-only-export) -- run_engine's seed chain; tests pin its streams
[[nodiscard]] std::uint64_t replication_seed(std::uint64_t master_seed,
                                             std::size_t replication) noexcept;

/// Writes every replication's probe rows as CSV:
/// replication,t_ms,busy_sites,busy_fraction,queued_messages,
/// inflight_requests,suspected_sites,issued,completed,failed,abandoned,
/// retries — one row per probe, replications in order. Header always
/// written; no rows when the engine ran without probe_interval_ms.
void write_engine_timeseries_csv(const EngineResult& result, std::ostream& out);

}  // namespace qp::sim
