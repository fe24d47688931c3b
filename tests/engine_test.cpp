// The discrete-event queueing engine (sim/engine): determinism across
// thread counts (open and closed loop), queueing-theory sanity (M/M/1), the
// exact event budget per request, outage draining, finite queues, bursty
// arrivals, configuration validation, explicit-strategy sampling
// frequencies, and the analytic-vs-simulated validation band the acceptance
// criteria pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "eval/sim_validation.hpp"
#include "net/latency_matrix.hpp"
#include "net/synthetic.hpp"
#include "obs/metrics.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/singleton.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "sim/strategy_sampler.hpp"
#include "support/quorum_enumeration.hpp"

namespace qp::sim {
namespace {

struct EngineFixture {
  net::LatencyMatrix matrix = net::small_synth(16, 5);
  quorum::MajorityQuorum system{6, 5};  // Q/U with t = 1.
  core::Placement placement = core::best_majority_placement(matrix, system).placement;

  /// Uniform rates scaled so the busiest site reaches `rho` under the
  /// balanced strategy's load.
  [[nodiscard]] std::vector<double> rates_for(double rho, double service_ms = 1.0) const {
    const std::vector<double> load =
        core::site_loads_balanced(system, placement, matrix.size());
    return scale_rates_to_peak_utilization(std::vector<double>(matrix.size(), 1.0), load,
                                           service_ms, rho);
  }
};

void expect_replications_identical(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
  EXPECT_EQ(a.p50_ms, b.p50_ms);
  EXPECT_EQ(a.p95_ms, b.p95_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.site_utilization, b.site_utilization);
  ASSERT_EQ(a.replications.size(), b.replications.size());
  for (std::size_t r = 0; r < a.replications.size(); ++r) {
    EXPECT_EQ(a.replications[r].response.mean(), b.replications[r].response.mean());
    EXPECT_EQ(a.replications[r].response.count(), b.replications[r].response.count());
    EXPECT_EQ(a.replications[r].response_samples, b.replications[r].response_samples);
    EXPECT_EQ(a.replications[r].site_utilization, b.replications[r].site_utilization);
  }
}

TEST(Engine, BitIdenticalAcrossThreadCounts) {
  const EngineFixture f;
  EngineConfig config;
  config.warmup_ms = 200.0;
  config.duration_ms = 1'500.0;
  config.replications = 4;
  config.master_seed = 11;
  const std::vector<double> rates = f.rates_for(0.5);

  common::ThreadPool serial{1};
  common::ThreadPool parallel{4};
  config.pool = &serial;
  const EngineResult a = run_engine(f.matrix, f.system, f.placement, rates, config);
  config.pool = &parallel;
  const EngineResult b = run_engine(f.matrix, f.system, f.placement, rates, config);
  expect_replications_identical(a, b);
  // And against the shared global pool (whatever QP_THREADS says).
  config.pool = nullptr;
  const EngineResult c = run_engine(f.matrix, f.system, f.placement, rates, config);
  expect_replications_identical(a, c);

  // Closed-loop clients: 8 per site, each re-issuing on resolution.
  config.closed_loop_clients = 8;
  config.pool = &serial;
  const EngineResult closed_a = run_engine(f.matrix, f.system, f.placement, rates, config);
  config.pool = &parallel;
  const EngineResult closed_b = run_engine(f.matrix, f.system, f.placement, rates, config);
  expect_replications_identical(closed_a, closed_b);
  EXPECT_GT(closed_a.completed, 0u);
}

TEST(Engine, DeterministicInSeedAndSensitiveToIt) {
  const EngineFixture f;
  EngineConfig config;
  config.warmup_ms = 200.0;
  config.duration_ms = 1'000.0;
  config.replications = 2;
  const std::vector<double> rates = f.rates_for(0.4);
  const EngineResult a = run_engine(f.matrix, f.system, f.placement, rates, config);
  const EngineResult b = run_engine(f.matrix, f.system, f.placement, rates, config);
  expect_replications_identical(a, b);
  config.master_seed += 1;
  const EngineResult c = run_engine(f.matrix, f.system, f.placement, rates, config);
  EXPECT_NE(a.mean_response_ms, c.mean_response_ms);
}

TEST(Engine, ReplicationSeedsFormDistinctStreams) {
  EXPECT_NE(replication_seed(1, 0), replication_seed(1, 1));
  EXPECT_NE(replication_seed(1, 0), replication_seed(2, 0));
  EXPECT_EQ(replication_seed(7, 3), replication_seed(7, 3));
}

// M/M/1 sanity: a single zero-RTT site under Poisson arrivals and
// exponential service is the textbook queue, so the simulated mean sojourn
// must match 1/(mu - lambda) = S/(1 - rho) within sampling confidence.
TEST(Engine, MM1SojournMatchesAnalytic) {
  const net::LatencyMatrix matrix{std::vector<std::vector<double>>{{0.0}}};
  const quorum::SingletonQuorum singleton;
  const core::Placement placement{{0}};
  const double service = 1.0;
  const double rho = 0.6;
  const std::vector<double> rates{rho / service};

  EngineConfig config;
  config.service_model = ServiceModel::Exponential;
  config.service_time_ms = service;
  config.warmup_ms = 5'000.0;
  config.duration_ms = 30'000.0;
  config.replications = 3;
  config.master_seed = 20070601;
  const EngineResult result = run_engine(matrix, singleton, placement, rates, config);

  const double analytic = service / (1.0 - rho);  // 2.5 ms.
  EXPECT_GT(result.completed, 40'000u);
  EXPECT_NEAR(result.mean_response_ms, analytic, 0.08 * analytic);
  EXPECT_NEAR(result.peak_utilization, rho, 0.05);
}

TEST(Engine, OutageDropsMessagesAndDrains) {
  const EngineFixture f;
  EngineConfig config;
  config.warmup_ms = 500.0;
  config.duration_ms = 4'000.0;
  config.replications = 2;
  config.strategy = EngineStrategy::Closest;
  const std::vector<double> rates = f.rates_for(0.5);

  const EngineResult clean = run_engine(f.matrix, f.system, f.placement, rates, config);
  EXPECT_EQ(clean.failed, 0u);
  EXPECT_EQ(clean.dropped_messages, 0u);
  EXPECT_EQ(clean.issued, clean.completed);

  config.outages = {{f.placement.site_of[0], 1'000.0, 2'500.0}};
  const EngineResult outage = run_engine(f.matrix, f.system, f.placement, rates, config);
  EXPECT_GT(outage.dropped_messages, 0u);
  EXPECT_GT(outage.failed, 0u);
  // Every windowed request resolved — the queues drained after the window.
  EXPECT_EQ(outage.issued, outage.completed + outage.failed);
  EXPECT_GT(outage.completed, 0u);
  // The victim site serves less of the window than in the clean run.
  EXPECT_LT(outage.site_utilization[f.placement.site_of[0]],
            clean.site_utilization[f.placement.site_of[0]]);
}

TEST(Engine, FiniteQueueRejectsUnderOverload) {
  const EngineFixture f;
  EngineConfig config;
  config.warmup_ms = 200.0;
  config.duration_ms = 2'000.0;
  config.replications = 1;
  config.queue_capacity = 4;
  const std::vector<double> rates = f.rates_for(1.5);  // Past saturation.
  const EngineResult result = run_engine(f.matrix, f.system, f.placement, rates, config);
  EXPECT_GT(result.rejected_arrivals, 0u);
  EXPECT_EQ(result.issued, result.completed + result.failed);
  // The finite queue bounds the sojourn: no response can exceed the max
  // RTT plus capacity * service.
  double max_rtt = 0.0;
  for (std::size_t a = 0; a < f.matrix.size(); ++a) {
    for (std::size_t b = 0; b < f.matrix.size(); ++b) {
      max_rtt = std::max(max_rtt, f.matrix.rtt(a, b));
    }
  }
  EXPECT_LE(result.response.max(),
            max_rtt + static_cast<double>(config.queue_capacity + 1) *
                          config.service_time_ms);
}

TEST(Engine, MmppBurstsInflateResponseAtEqualMeanRate) {
  const EngineFixture f;
  EngineConfig config;
  config.warmup_ms = 500.0;
  config.duration_ms = 6'000.0;
  config.replications = 2;
  const std::vector<double> rates = f.rates_for(0.6);
  const EngineResult poisson = run_engine(f.matrix, f.system, f.placement, rates, config);
  config.arrival_model = ArrivalModel::Mmpp;
  const EngineResult bursty = run_engine(f.matrix, f.system, f.placement, rates, config);
  EXPECT_GT(bursty.mean_response_ms, poisson.mean_response_ms);
  EXPECT_GT(bursty.p99_ms, poisson.p99_ms);
}

// Without warm-up, faults, retries or probes every request costs exactly
// its arrival, one message per quorum element and one Done at its last
// reply: no event per reply. On Grid(3x3) a quorum is a row plus a column,
// 5 elements, so 7 events per request.
TEST(Engine, EventBudgetIsQuorumSizePlusTwoPerRequest) {
  const net::LatencyMatrix matrix = net::small_synth(16, 5);
  const quorum::GridQuorum grid{3};
  const core::Placement placement = core::best_grid_placement(matrix, 3).placement;
  const std::vector<double> load =
      core::site_loads_balanced(grid, placement, matrix.size());
  const std::vector<double> rates = scale_rates_to_peak_utilization(
      std::vector<double>(matrix.size(), 1.0), load, 1.0, 0.5);
  EngineConfig config;
  config.warmup_ms = 0.0;
  config.duration_ms = 1'000.0;
  config.replications = 2;

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::reset();
  const EngineResult result = run_engine(matrix, grid, placement, rates, config);
  std::uint64_t events = 0;
  for (const obs::MetricSnapshot& metric : obs::snapshot()) {
    if (metric.name == "sim.engine.events") events = metric.value;
  }
  obs::reset();
  obs::set_enabled(was_enabled);

  const std::size_t quorum_size = 5;
  ASSERT_GT(result.issued, 0u);
  EXPECT_EQ(result.completed, result.issued);
  EXPECT_EQ(events, (quorum_size + 2) * result.issued);
}

TEST(Engine, ValidatesConfiguration) {
  const EngineFixture f;
  EngineConfig config;
  const std::vector<double> rates = f.rates_for(0.3);
  EXPECT_THROW((void)run_engine(f.matrix, f.system, f.placement, {}, config),
               std::invalid_argument);
  const std::vector<double> zero(f.matrix.size(), 0.0);
  EXPECT_THROW((void)run_engine(f.matrix, f.system, f.placement, zero, config),
               std::invalid_argument);
  config.replications = 0;
  EXPECT_THROW((void)run_engine(f.matrix, f.system, f.placement, rates, config),
               std::invalid_argument);
  config.replications = 1;
  config.strategy = EngineStrategy::Explicit;  // Without a strategy table.
  EXPECT_THROW((void)run_engine(f.matrix, f.system, f.placement, rates, config),
               std::invalid_argument);
  config.strategy = EngineStrategy::Balanced;
  config.outages = {{f.matrix.size() + 5, 0.0, 1.0}};
  EXPECT_THROW((void)run_engine(f.matrix, f.system, f.placement, rates, config),
               std::out_of_range);
  // Closed loop without retries: a lost message fails the request and the
  // client re-issues at once, so a client colocated with its quorum could
  // spin at one timestamp forever. Outages and finite queues need retries.
  config.closed_loop_clients = 2;
  config.outages = {{f.placement.site_of[0], 0.0, 1.0}};
  EXPECT_THROW((void)run_engine(f.matrix, f.system, f.placement, rates, config),
               std::invalid_argument);
  config.outages.clear();
  config.queue_capacity = 4;
  EXPECT_THROW((void)run_engine(f.matrix, f.system, f.placement, rates, config),
               std::invalid_argument);
}

// ------------------------------------------------------- arrival processes

TEST(ArrivalGenerator, PoissonMatchesConfiguredRate) {
  common::Rng rng{5};
  ArrivalGenerator generator{ArrivalModel::Poisson, 0.8, rng};
  double t = 0.0;
  std::size_t count = 0;
  const double horizon = 200'000.0;
  while ((t = generator.next(t, rng)) < horizon) ++count;
  EXPECT_NEAR(static_cast<double>(count) / horizon, 0.8, 0.02);
}

TEST(ArrivalGenerator, MmppPreservesTheMeanRate) {
  common::Rng rng{6};
  ArrivalGenerator generator{ArrivalModel::Mmpp, 0.8, rng};
  double t = 0.0;
  std::size_t count = 0;
  const double horizon = 400'000.0;
  while ((t = generator.next(t, rng)) < horizon) ++count;
  EXPECT_NEAR(static_cast<double>(count) / horizon, 0.8, 0.04);
}

TEST(ArrivalGenerator, ValidatesConfiguration) {
  common::Rng rng{7};
  EXPECT_THROW((ArrivalGenerator{ArrivalModel::Poisson, 0.0, rng}), std::invalid_argument);
  EXPECT_THROW((ArrivalGenerator{ArrivalModel::Mmpp, 0.0, rng}), std::invalid_argument);
  // The MMPP parameters are constants; their validity (burst >= 1, a
  // positive OFF rate) is a static_assert in sim/arrivals.cpp.
}

// ------------------------------------------------------- strategy sampling

/// Chi-squared statistic of observed counts vs expected probabilities.
double chi_squared(std::span<const std::size_t> observed, std::span<const double> expected,
                   std::size_t draws, std::size_t& df) {
  double statistic = 0.0;
  df = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double expect = expected[i] * static_cast<double>(draws);
    if (expect <= 0.0) {
      EXPECT_EQ(observed[i], 0u);  // Zero-probability bins must stay empty.
      continue;
    }
    const double diff = static_cast<double>(observed[i]) - expect;
    statistic += diff * diff / expect;
    ++df;
  }
  df = df > 0 ? df - 1 : 0;
  return statistic;
}

TEST(StrategySampler, ExplicitFrequenciesMatchLpWeights) {
  // LP-optimize the Grid(3x3) access strategy on a 9-site topology with
  // moderately tight capacities, then check that the sampler's empirical
  // per-client frequencies reproduce the LP's probability rows.
  const net::LatencyMatrix matrix = net::small_synth(9, 13);
  const quorum::GridQuorum grid{3};
  const core::Placement placement = core::best_grid_placement(matrix, 3).placement;
  const std::vector<double> caps(matrix.size(), 1.25 * grid.optimal_load());
  const core::StrategyLpResult lp =
      core::optimize_access_strategy(matrix, grid, placement, caps);
  ASSERT_EQ(lp.status, lp::SolveStatus::Optimal);

  const QuorumSampler sampler =
      QuorumSampler::explicit_strategy(lp.strategy, matrix.size(), grid);
  common::Rng rng{99};
  quorum::Quorum scratch;
  const std::size_t draws = 40'000;
  // chi-squared 0.999 critical values by degrees of freedom (1..8).
  const double critical[] = {10.83, 13.82, 16.27, 18.47, 20.52, 22.46, 24.32, 26.12};
  const std::vector<quorum::Quorum> quorums =
      quorum::test_support::quorum_list(*lp.strategy.quorums);
  for (std::size_t client : {std::size_t{0}, std::size_t{4}, std::size_t{8}}) {
    std::vector<std::size_t> observed(quorums.size(), 0);
    for (std::size_t i = 0; i < draws; ++i) {
      const quorum::Quorum& drawn = sampler.draw(client, rng, scratch);
      const auto it = std::find(quorums.begin(), quorums.end(), drawn);
      ASSERT_NE(it, quorums.end());
      ++observed[static_cast<std::size_t>(it - quorums.begin())];
    }
    std::size_t df = 0;
    const double statistic =
        chi_squared(observed, lp.strategy.probability[client], draws, df);
    if (df == 0) continue;  // Point mass: nothing to test beyond the bins.
    ASSERT_LE(df, std::size(critical));
    EXPECT_LT(statistic, critical[df - 1]) << "client " << client;
  }
}

TEST(StrategySampler, BalancedMatchesSampleQuorums) {
  // The single-draw overrides (Majority AND Grid) must match
  // sample_quorums(1, rng)[0] for the same rng state — the documented
  // sample_quorum contract the balanced sampler relies on.
  const quorum::MajorityQuorum majority{7, 4};
  const quorum::GridQuorum grid{3};
  for (const quorum::QuorumSystem* system :
       {static_cast<const quorum::QuorumSystem*>(&majority),
        static_cast<const quorum::QuorumSystem*>(&grid)}) {
    common::Rng a{21};
    common::Rng b{21};
    const QuorumSampler sampler = QuorumSampler::balanced(*system);
    quorum::Quorum scratch;
    for (int i = 0; i < 50; ++i) {
      const quorum::Quorum& drawn = sampler.draw(0, a, scratch);
      EXPECT_EQ(drawn, system->sample_quorums(1, b)[0]) << system->name();
    }
  }
}

// ------------------------------------------------------------- validation

TEST(SimValidation, LowUtilizationAgreesWithAnalyticWithin3Percent) {
  eval::SimValidationConfig config;
  config.rho_values = {0.3};
  config.warmup_ms = 1'000.0;
  config.duration_ms = 8'000.0;
  config.replications = 2;
  const auto points = eval::sim_validation_sweep(net::planetlab50_synth(), config);
  ASSERT_EQ(points.size(), 4u);  // 2 systems x {closest, balanced}.
  for (const auto& p : points) {
    EXPECT_LT(std::abs(p.divergence_pct), 3.0)
        << p.system << "/" << p.strategy << ": analytic " << p.analytic_ms
        << " ms vs simulated " << p.simulated_ms << " ms";
    EXPECT_NEAR(p.peak_utilization, 0.3, 0.05) << p.system << "/" << p.strategy;
    EXPECT_GT(p.completed, 1'000u);
  }
}

TEST(SimValidation, ShardsPartitionAndReproduceTheRows) {
  eval::SimValidationConfig config;
  config.rho_values = {0.2};
  config.warmup_ms = 100.0;
  config.duration_ms = 600.0;
  config.replications = 1;
  const auto full = eval::sim_validation_sweep(net::planetlab50_synth(), config);
  config.shard = {0, 2};
  const auto even = eval::sim_validation_sweep(net::planetlab50_synth(), config);
  config.shard = {1, 2};
  const auto odd = eval::sim_validation_sweep(net::planetlab50_synth(), config);
  ASSERT_EQ(even.size() + odd.size(), full.size());
  std::vector<const eval::SimValidationPoint*> merged;
  for (const auto& p : even) merged.push_back(&p);
  for (const auto& p : odd) merged.push_back(&p);
  for (const auto& p : full) {
    const auto it = std::find_if(merged.begin(), merged.end(), [&](const auto* q) {
      return q->system == p.system && q->strategy == p.strategy &&
             q->target_rho == p.target_rho;
    });
    ASSERT_NE(it, merged.end());
    // Point seeds derive from the row index, not the shard, so sharded rows
    // reproduce the unsharded run bitwise.
    EXPECT_EQ((*it)->simulated_ms, p.simulated_ms);
    EXPECT_EQ((*it)->analytic_ms, p.analytic_ms);
  }
}

TEST(SimValidation, ScenarioRowsCarryDemandWeighting) {
  eval::SimValidationConfig config;
  config.rho_values = {0.2};
  config.warmup_ms = 200.0;
  config.duration_ms = 1'000.0;
  config.replications = 1;
  const auto points =
      eval::sim_validation_scenario(sim::daxlist161_scenario(), config);
  ASSERT_EQ(points.size(), 4u);
  for (const auto& p : points) {
    EXPECT_EQ(p.scenario, "daxlist-161");
    EXPECT_TRUE(std::isfinite(p.simulated_ms));
    EXPECT_GT(p.simulated_ms, 0.0);
    EXPECT_GT(p.analytic_ms, 0.0);
    EXPECT_GT(p.completed, 0u);
    // The scaling targeted rho 0.2 on the busiest site; the measured peak
    // should be in that neighbourhood even over a short window.
    EXPECT_GT(p.peak_utilization, 0.05);
    EXPECT_LT(p.peak_utilization, 0.45);
  }
}

}  // namespace
}  // namespace qp::sim
