// Fault-tolerance figure: failure-aware vs failure-oblivious placement
// under regional fault storms.
//
// Two placements of Majority(5/9) on a 50-site WAN whose densest region
// (us-east, 20 of 50 sites) is also the latency center, both local-search
// optima from the same region-spread start (round-robin over regions —
// starting spread matters: colocation is a plateau no single relocation
// escapes, since unavailability only drops once at most q-1 elements share
// a region, so the searches differ in what they *keep*, not what they find):
//   * oblivious — ClosestStrategyObjective (latency only, the live model):
//                 greedily drifts back into full colocation in the dense
//                 central region;
//   * aware     — core::FailureAwareObjective with correlated regional
//                 failures + i.i.d. site failures (exact enumeration at this
//                 support size, Naive-fallback search): accepts the same
//                 latency-improving moves only while the availability
//                 penalty stays paid, ending spread 4/3/2 across regions.
// The objective's unavailable_penalty_ms is set to the engine's give-up
// wall-clock (full retry chain: max_attempts timeouts + backoffs), so the
// analytic J prices an unserved request at exactly what the client pays.
//
// Both placements then face the same injected fault storms (sim/fault:
// every site cycling through crash/recovery plus whole-region blackouts)
// in the queueing engine with timeouts, bounded retries, and Suspicion
// failover — the realistic reactive detector, not the oracle. The horizon
// is long (1 h simulated) because storm schedules over short horizons are
// dominated by seed luck. Payload columns: completed-request p99, the
// degraded-mode p99 (abandoned requests scored at their give-up time —
// immune to the survivorship bias where a placement that abandons its
// storm-time requests drops them from the percentile), and measured
// unavailability. A regional blackout takes out exactly the colocated
// quorum elements, so the latency-only placement abandons every request
// for the duration of each central-region storm while the failure-aware
// one fails over and keeps completing.
//
// Operating point notes (probed): retry amplification is metastable — at
// max_attempts >= 5 or suspicion TTLs that outlive storms, timed-out
// retries from the whole WAN concentrate on the few spread survivors,
// congestion-suspect live sites, and collapse the run; 4 attempts with a
// 2 s TTL stays stable at rho 0.25.
//
// QP_SIM_SMOKE=1 shrinks the horizon and search for CI smoke runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/failure_objective.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "net/synthetic.hpp"
#include "quorum/majority.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace qp;

struct BenchSetup {
  net::SyntheticTopology topology;
  quorum::MajorityQuorum system{9, 5};
  core::FailureModel model;
  core::FailureAwareOptions options;
  sim::RetryPolicy retry;
  bool smoke = false;
};

BenchSetup make_setup() {
  net::SyntheticConfig topo;
  topo.seed = 20070601;
  // One dense region at the latency center of the demand: the setting where
  // the latency-only optimum is maximally fragile to a regional blackout.
  topo.regions = {{"us-east", 40.0, -75.0, 4.0, 20},
                  {"us-west", 37.0, -122.0, 4.0, 10},
                  {"eu", 50.0, 8.0, 5.0, 12},
                  {"asia", 35.0, 130.0, 5.0, 8}};
  BenchSetup setup{.topology = net::generate_topology(topo),
                   .model = {},
                   .options = {},
                   .retry = {}};
  setup.smoke = std::getenv("QP_SIM_SMOKE") != nullptr;
  setup.model.site_failure_prob = 0.02;
  setup.model.region_failure_prob = 0.05;
  setup.model.site_region = sim::region_partition(setup.topology.sites);

  // One client SLA for both placements: timeout covers the worst RTT in the
  // whole matrix (placement-tuned timeouts would hand the spread placement a
  // longer giveup chain and poison the p99 comparison).
  const net::LatencyMatrix& matrix = setup.topology.matrix;
  double global_max_rtt = 0.0;
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    for (std::size_t w = 0; w < matrix.size(); ++w) {
      global_max_rtt = std::max(global_max_rtt, matrix.rtt(v, w));
    }
  }
  setup.retry.timeout_ms = 1.25 * global_max_rtt + 25.0;
  setup.retry.max_attempts = 4;
  setup.retry.backoff_base_ms = 5.0;
  setup.retry.jitter_frac = 0.25;

  // Price an unserved request at the client's give-up wall-clock (the whole
  // retry chain, jitter aside) — the analytic twin of the degraded-mode p99.
  double giveup = 0.0;
  for (std::size_t attempt = 1; attempt <= setup.retry.max_attempts; ++attempt) {
    giveup += setup.retry.timeout_ms;
    if (attempt < setup.retry.max_attempts) {
      giveup += std::min(setup.retry.backoff_base_ms * static_cast<double>(1u << (attempt - 1)),
                         setup.retry.backoff_max_ms);
    }
  }
  setup.options.unavailable_penalty_ms = giveup;
  return setup;
}

/// Round-robin one-to-one placement over the regions, most-central sites of
/// each region first — the spread starting point both searches refine.
core::Placement spread_initial(const BenchSetup& setup) {
  const net::LatencyMatrix& matrix = setup.topology.matrix;
  const std::vector<std::size_t>& region = setup.model.site_region;
  const std::size_t regions =
      1 + *std::max_element(region.begin(), region.end());
  std::vector<std::size_t> order(matrix.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> total(matrix.size(), 0.0);
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    for (std::size_t w = 0; w < matrix.size(); ++w) total[v] += matrix.rtt(v, w);
  }
  std::sort(order.begin(), order.end(),
            [&total](std::size_t a, std::size_t b) { return total[a] < total[b]; });
  std::vector<std::vector<std::size_t>> by_region(regions);
  for (std::size_t site : order) by_region[region[site]].push_back(site);
  core::Placement placement;
  std::vector<std::size_t> next(regions, 0);
  for (std::size_t u = 0; u < setup.system.universe_size(); ++u) {
    std::size_t r = u % regions;
    while (next[r] >= by_region[r].size()) r = (r + 1) % regions;
    placement.site_of.push_back(by_region[r][next[r]++]);
  }
  return placement;
}

struct PlacementRow {
  std::string name;
  std::string system;
  double objective_ms = 0.0;             // FailureAware J of this placement.
  double unavailability_analytic = 0.0;  // FailureAware prediction.
  sim::EngineResult result;

  template <class F>
  void columns(F&& f) const {
    f("placement", name);
    f("system", system);
    f("objective_ms", objective_ms);
    f("unavailability_analytic", unavailability_analytic);
    f("mean_ms", result.mean_response_ms);
    f("p99_ms", result.p99_ms);
    f("degraded_p99_ms", result.degraded_p99_ms);
    f("unavailability_sim", result.unavailability);
    f("retries", result.retries);
    f("abandoned", result.abandoned);
    f("completed", result.completed);
  }
};

/// Runs the fault-storm engine on one placement: uniform clients at peak
/// rho 0.25, per-site + regional fault injection drawn from the same law the
/// aware objective optimizes for, retries with Suspicion failover.
sim::EngineResult run_storm(const BenchSetup& setup, const core::Placement& placement) {
  const net::LatencyMatrix& matrix = setup.topology.matrix;
  const std::vector<double> site_load =
      core::site_loads_closest(matrix, setup.system, placement);
  const double service = 1.0;
  const std::vector<double> rates = sim::scale_rates_to_peak_utilization(
      std::vector<double>(matrix.size(), 1.0), site_load, service, 0.25);

  sim::EngineConfig engine;
  engine.service_time_ms = service;
  engine.strategy = sim::EngineStrategy::Closest;
  engine.warmup_ms = setup.smoke ? 500.0 : 2'000.0;
  engine.duration_ms = setup.smoke ? 30'000.0 : 3'600'000.0;
  engine.replications = 1;
  engine.master_seed = 424242;

  sim::FaultInjectorConfig fault;
  fault.seed = 0x5707'1113ULL;
  fault.horizon_ms = engine.warmup_ms + engine.duration_ms;
  fault.site =
      sim::FaultProcess::for_down_probability(setup.model.site_failure_prob, 2'500.0);
  fault.regional = sim::FaultProcess::for_down_probability(
      setup.model.region_failure_prob, 2'000.0);
  fault.site_region = setup.model.site_region;
  engine.outages = sim::FaultInjector{fault}.schedule(matrix.size());

  engine.retry = setup.retry;
  engine.failover = sim::FailoverMode::Suspicion;
  return run_engine(matrix, setup.system, placement, rates, engine);
}

// Timing kernel: Monte-Carlo failure-set evaluations per second — the
// per-candidate cost the failure-aware search pays beyond the exact-
// enumeration regime (exact_site_limit = 0 forces the MC path).
void BM_FailureAwareEvaluate(benchmark::State& state) {
  const BenchSetup setup = make_setup();
  const core::Placement placement =
      core::best_majority_placement(setup.topology.matrix, setup.system).placement;
  core::FailureAwareOptions options = setup.options;
  options.exact_site_limit = 0;
  options.mc_samples = 20'000;
  const core::FailureAwareObjective objective{0.0, setup.model, options};
  std::size_t evals = 0;
  for (auto _ : state) {
    const auto detailed =
        objective.evaluate_detailed(setup.topology.matrix, setup.system, placement);
    benchmark::DoNotOptimize(detailed.objective_ms);
    ++evals;
  }
  state.counters["evals_per_s"] =
      benchmark::Counter(static_cast<double>(evals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FailureAwareEvaluate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "# Fault tolerance: failure-aware vs failure-oblivious placement\n";
  const BenchSetup setup = make_setup();
  const net::LatencyMatrix& matrix = setup.topology.matrix;

  const core::Placement initial = spread_initial(setup);
  // Support is 9 sites <= exact_site_limit, so the search evaluates the
  // failure law exactly — no Monte-Carlo noise in move comparisons.
  const core::FailureAwareObjective aware_objective{0.0, setup.model, setup.options};

  core::LocalSearchOptions search;
  search.max_rounds = setup.smoke ? 8 : 30;

  const core::ClosestStrategyObjective oblivious_objective{0.0};
  search.objective = &oblivious_objective;
  const core::Placement oblivious =
      core::local_search_placement(matrix, setup.system, initial, search).placement;

  search.objective = &aware_objective;  // supports_delta() false -> Naive.
  const core::Placement aware =
      core::local_search_placement(matrix, setup.system, initial, search).placement;

  std::vector<PlacementRow> rows;
  for (auto& [name, placement] :
       {std::pair<std::string, const core::Placement&>{"oblivious", oblivious},
        std::pair<std::string, const core::Placement&>{"aware", aware}}) {
    PlacementRow row;
    row.name = name;
    row.system = setup.system.name();
    const auto detailed = aware_objective.evaluate_detailed(matrix, setup.system, placement);
    row.objective_ms = detailed.objective_ms;
    row.unavailability_analytic = detailed.unavailability;
    row.result = run_storm(setup, placement);
    rows.push_back(std::move(row));
  }

  qp::bench::emit_rows(rows, [](const PlacementRow& row) {
    return "FaultTolerance/world-50/" + row.system + "/" + row.name;
  });
  return qp::bench::run_benchmarks(argc, argv);
}
