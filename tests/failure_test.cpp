// Failure-injection tests for the engine's closed-loop clients (the §3
// client model): server outages drop messages, clients time out and retry
// at once on a fresh uniformly random quorum, and the system keeps serving
// thanks to the quorum intersection property.
#include <gtest/gtest.h>

#include <vector>

#include "core/placement.hpp"
#include "net/synthetic.hpp"
#include "quorum/majority.hpp"
#include "sim/client_sites.hpp"
#include "sim/engine.hpp"

namespace qp::sim {
namespace {

struct Fixture {
  net::LatencyMatrix matrix = net::small_synth(14, 77);
  quorum::MajorityQuorum system{5, 3};
  core::Placement placement = core::best_majority_placement(matrix, system).placement;
  std::vector<double> clients = client_site_mask(
      matrix.size(), representative_client_sites(matrix, system, placement, 4));
};

/// One closed-loop client per site; a timed-out attempt retries at once on
/// a fresh balanced-strategy quorum (no backoff, no failover re-choice).
EngineConfig base_config() {
  EngineConfig config;
  config.closed_loop_clients = 1;
  config.duration_ms = 4000.0;
  config.warmup_ms = 500.0;
  config.replications = 1;
  config.master_seed = 5;
  config.retry.timeout_ms = 600.0;
  config.retry.max_attempts = 10;
  return config;
}

EngineResult run(const Fixture& f, const EngineConfig& config) {
  return run_engine(f.matrix, f.system, f.placement, f.clients, config);
}

TEST(FailureInjection, NoOutagesMeansNoRetriesOrDrops) {
  const Fixture f;
  const auto result = run(f, base_config());
  EXPECT_EQ(result.failed + result.abandoned, 0u);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(result.dropped_messages, 0u);
  EXPECT_GT(result.completed, 0u);
}

TEST(FailureInjection, OutageDropsMessagesAndTriggersRetries) {
  const Fixture f;
  EngineConfig config = base_config();
  // Take one server site down for a chunk of the measured window.
  const std::size_t victim = f.placement.site_of[0];
  config.outages = {{victim, 1000.0, 2500.0}};
  const auto result = run(f, config);
  EXPECT_GT(result.dropped_messages, 0u);
  EXPECT_GT(result.retries, 0u);
  // Quorum intersection lets retries route around the dead server: the
  // system keeps completing requests.
  EXPECT_GT(result.completed, 50u);
}

TEST(FailureInjection, OutageInflatesTailResponseTime) {
  const Fixture f;
  EngineConfig config = base_config();
  const auto healthy =
      run(f, config);
  config.outages = {{f.placement.site_of[0], 1000.0, 2500.0}};
  const auto degraded =
      run(f, config);
  // Timeouts (600 ms) dominate the affected requests' latency.
  EXPECT_GT(degraded.response.max(), healthy.response.max());
  EXPECT_GT(degraded.mean_response_ms, healthy.mean_response_ms);
}

TEST(FailureInjection, TotalOutageExhaustsAttempts) {
  const Fixture f;
  EngineConfig config = base_config();
  config.retry.max_attempts = 2;
  // Majority(3/5) requires 3 of 5 servers; kill 3 for the entire run.
  config.outages = {{f.placement.site_of[0], 0.0, 10'000.0},
                    {f.placement.site_of[1], 0.0, 10'000.0},
                    {f.placement.site_of[2], 0.0, 10'000.0}};
  const auto result = run(f, config);
  // Every quorum intersects the dead set, so nothing can complete.
  EXPECT_EQ(result.completed, 0u);
  EXPECT_GT(result.abandoned, 0u);
}

TEST(FailureInjection, MinorityOutageOfTwoServersStillServes) {
  const Fixture f;
  EngineConfig config = base_config();
  // 2 of 5 down for the whole run: only 1 of the 10 possible quorums is
  // fully alive, so blind uniform retries need many attempts (expected 10)
  // before hitting it. Give them room: short timeout, long window, more
  // clients, generous attempt budget.
  config.duration_ms = 12'000.0;
  config.retry.timeout_ms = 250.0;
  config.closed_loop_clients = 3;
  config.retry.max_attempts = 60;
  config.outages = {{f.placement.site_of[0], 0.0, 60'000.0},
                    {f.placement.site_of[1], 0.0, 60'000.0}};
  const auto result = run(f, config);
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.retries, result.completed);
}

TEST(FailureInjection, RecoveryRestoresThroughput) {
  const Fixture f;
  EngineConfig config = base_config();
  config.duration_ms = 6000.0;
  // Outage confined to the warmup: the measured window sees a healthy system.
  config.outages = {{f.placement.site_of[0], 0.0, 400.0}};
  const auto early_outage = run(f, config);
  EngineConfig clean = config;
  clean.outages.clear();
  const auto healthy = run(f, clean);
  EXPECT_NEAR(early_outage.mean_response_ms, healthy.mean_response_ms,
              0.25 * healthy.mean_response_ms);
}

TEST(FailureInjection, ConfigValidation) {
  const Fixture f;
  EngineConfig config = base_config();
  config.retry.timeout_ms = 0.0;
  config.outages = {{0, 1.0, 2.0}};
  EXPECT_THROW((void)run(f, config), std::invalid_argument);
  config = base_config();
  config.outages = {{999, 1.0, 2.0}};
  EXPECT_THROW((void)run(f, config), std::out_of_range);
  config = base_config();
  config.outages = {{0, 5.0, 5.0}};  // Empty window.
  EXPECT_THROW((void)run(f, config), std::invalid_argument);
  config = base_config();
  config.retry.max_attempts = 0;
  EXPECT_THROW((void)run(f, config), std::invalid_argument);
}

TEST(FailureInjection, StaleTimeoutAfterCompletionDoesNotRetry) {
  // Regression: a timeout event firing after its request already completed
  // (or moved on) must be discarded, not counted as a retry. With the
  // timeout set beyond the slowest observed response, a healthy run must be
  // bitwise identical to a run with timeouts effectively disabled — the old
  // accounting resurrected the last pre-drain request of every client when
  // its stale timeout fired after the issue window closed.
  const Fixture f;
  EngineConfig relaxed = base_config();
  relaxed.retry.timeout_ms = 60'000.0;  // Never fires before completion.
  const auto baseline =
      run(f, relaxed);
  ASSERT_EQ(baseline.retries, 0u);
  ASSERT_EQ(baseline.failed + baseline.abandoned, 0u);

  EngineConfig timed = base_config();
  // Tight but safe: above every completed response of the baseline, so a
  // correct simulator never times out — yet every completion leaves a
  // pending timeout event behind to tempt the stale-event accounting.
  timed.retry.timeout_ms = baseline.response.max() * 2.0 + 1.0;
  const auto result =
      run(f, timed);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(result.failed + result.abandoned, 0u);
  EXPECT_EQ(result.completed, baseline.completed);
  EXPECT_DOUBLE_EQ(result.mean_response_ms, baseline.mean_response_ms);
}

TEST(FailureInjection, DeterministicUnderFailures) {
  const Fixture f;
  EngineConfig config = base_config();
  config.outages = {{f.placement.site_of[1], 800.0, 2000.0}};
  const auto a = run(f, config);
  const auto b = run(f, config);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.dropped_messages, b.dropped_messages);
  EXPECT_DOUBLE_EQ(a.mean_response_ms, b.mean_response_ms);
}

}  // namespace
}  // namespace qp::sim
