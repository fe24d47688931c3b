// Sim-validation figure: the discrete-event queueing engine (sim/engine)
// cross-checked against the analytic closest/balanced/LP objectives.
//
// Rows: {Grid(7x7), Majority(25/49)} on Planetlab-50 at rho in
// {0.3, 0.6, 0.9} for closest + balanced (+ the LP-exported explicit
// strategy on the Grid), one outage row and one bursty MMPP row per
// system, plus demand-weighted scenario rows on daxlist-161 and
// synthetic-500. divergence_pct is the figure's payload: ~0 at rho 0.3
// (the 3% band the engine tests enforce), growing at 0.6/0.9 and under
// bursts/outages as the linear alpha*load surrogate stops modelling
// queueing. The timing benchmark records engine event throughput.
//
// QP_SIM_SMOKE=1 shrinks the simulated horizon for CI smoke runs;
// QP_POINT_SHARD (run_all.sh --points K/N) shards the row set.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "core/local_search.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "eval/sim_validation.hpp"
#include "eval/sweeps.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace qp;

// Timing kernel: engine requests-per-second on the Grid at rho =
// range(0)/10 — the genuine cost of a validation row, in simulated
// requests completed per wall-clock second. The typed-event queue
// (EventQueue<EngineEvent>, replacing per-event std::function heap
// allocations) moved the rho = 0.9 row from 21.6 ms to 17.6 ms per
// replication (161.8k -> 197.2k simulated requests/s, ~1.23x,
// bitwise-identical results). The calendar queue, the request ring and the
// per-client RTT rows then moved it from 23.2 ms to 14.1 ms (median of
// three alternating 5-repetition runs per side, Release, GCC 12.2 on a
// 4-core Intel Xeon: 148.2k -> 245.8k simulated requests/s, ~1.65x,
// bitwise-identical results).
void BM_EngineGridRho(benchmark::State& state) {
  const double rho = static_cast<double>(state.range(0)) / 10.0;
  const net::LatencyMatrix matrix = net::planetlab50_synth();
  const quorum::GridQuorum grid{7};
  const core::Placement placement = core::best_grid_placement(matrix, 7).placement;
  const std::vector<double> site_load =
      core::site_loads_balanced(grid, placement, matrix.size());
  const std::vector<double> rates = sim::scale_rates_to_peak_utilization(
      std::vector<double>(matrix.size(), 1.0), site_load, 1.0, rho);
  sim::EngineConfig config;
  config.warmup_ms = 200.0;
  config.duration_ms = 1'000.0;
  config.replications = 1;
  std::size_t completed = 0;
  for (auto _ : state) {
    const sim::EngineResult result = run_engine(matrix, grid, placement, rates, config);
    completed += result.completed;
    ++config.master_seed;
    benchmark::DoNotOptimize(result.mean_response_ms);
  }
  state.counters["sim_requests_per_s"] =
      benchmark::Counter(static_cast<double>(completed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineGridRho)->Arg(6)->Arg(9)->Unit(benchmark::kMillisecond);

/// Placement-pipeline row: hill-climb the constructive Grid placement
/// (core/local_search over the delta evaluator on the shared pool), re-solve
/// the strategy LP on the improved placement, then run the engine on it with
/// time-series probes enabled. One row that walks all four instrumented
/// layers — the CI trace smoke (QP_TRACE + tools/check_trace.py) relies on
/// it to see core.local_search, lp.*, sim.engine, and common.thread_pool
/// spans in a single binary run. QP_TIMESERIES=<path> additionally writes
/// the probe rows as CSV (sim::write_engine_timeseries_csv).
void run_pipeline_row(bool smoke) {
  const net::LatencyMatrix matrix = net::planetlab50_synth();
  const quorum::GridQuorum grid{7};
  const core::Placement seed = core::best_grid_placement(matrix, 7).placement;
  // A dedicated 2-thread pool so the pooled parallel_for path (and its
  // common.thread_pool trace spans) runs even on single-core machines,
  // where the shared global pool degrades to inline execution. Results are
  // bit-identical for any thread setting.
  common::ThreadPool pool{2};
  core::LocalSearchOptions search_options;
  search_options.max_rounds = smoke ? 4 : 64;
  search_options.threads = 2;
  const core::LocalSearchResult search =
      core::local_search_placement(matrix, grid, seed, search_options);

  const std::vector<double> caps(matrix.size(), 1.25 * grid.optimal_load());
  const core::StrategyLpResult lp =
      core::optimize_access_strategy(matrix, grid, search.placement, caps);

  sim::EngineConfig config;
  config.warmup_ms = 200.0;
  config.duration_ms = smoke ? 1'000.0 : 5'000.0;
  config.replications = smoke ? 1 : 3;
  config.master_seed = 71;
  config.probe_interval_ms = smoke ? 100.0 : 250.0;
  config.pool = &pool;
  if (lp.status == lp::SolveStatus::Optimal) {
    config.strategy = sim::EngineStrategy::Explicit;
  }
  const std::vector<double> site_load =
      lp.status == lp::SolveStatus::Optimal
          ? core::site_loads_explicit(lp.strategy, search.placement, matrix.size())
          : core::site_loads_balanced(grid, search.placement, matrix.size());
  const std::vector<double> rates = sim::scale_rates_to_peak_utilization(
      std::vector<double>(matrix.size(), 1.0), site_load, 1.0, 0.6);
  sim::EngineResult result;
  {
    // Scope the explicit strategy to outlive the run only.
    config.explicit_strategy =
        lp.status == lp::SolveStatus::Optimal ? &lp.strategy : nullptr;
    result = run_engine(matrix, grid, search.placement, rates, config);
  }

  std::size_t probes = 0;
  for (const sim::ReplicationResult& r : result.replications) probes += r.probes.size();
  if (const char* path = std::getenv("QP_TIMESERIES")) {
    std::ofstream out{path};
    if (out) sim::write_engine_timeseries_csv(result, out);
  }

  const double search_moves = static_cast<double>(search.moves);
  const double lp_iterations = static_cast<double>(lp.lp_iterations);
  // 0 means the LP did not solve and the engine fell back to the balanced
  // strategy — otherwise invisible in this row.
  const double lp_optimal = lp.status == lp::SolveStatus::Optimal ? 1.0 : 0.0;
  const double probe_rows = static_cast<double>(probes);
  const double completed = static_cast<double>(result.completed);
  qp::bench::register_point(
      "SimValidation/pipeline/local-search+lp+probed-engine",
      [=, mean = result.mean_response_ms](benchmark::State& state) {
        state.counters["search_moves"] = search_moves;
        state.counters["lp_iterations"] = lp_iterations;
        state.counters["lp_optimal"] = lp_optimal;
        state.counters["probe_rows"] = probe_rows;
        state.counters["completed"] = completed;
        state.counters["simulated_ms"] = mean;
      });
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "# Sim validation: analytic objectives vs discrete-event engine\n";
  const bool smoke = std::getenv("QP_SIM_SMOKE") != nullptr;

  eval::SimValidationConfig config;
  config.rho_values = {0.3, 0.6, 0.9};
  config.include_lp = true;
  config.include_outage = true;
  config.include_mmpp = true;
  config.include_fault = true;
  config.shard = eval::point_shard_from_env();  // run_all.sh --points K/N.
  if (smoke) {
    config.rho_values = {0.3};
    config.include_lp = false;
    config.warmup_ms = 200.0;
    config.duration_ms = 1'000.0;
    config.replications = 1;
  }
  std::vector<eval::SimValidationPoint> points =
      eval::sim_validation_sweep(net::planetlab50_synth(), config);

  eval::SimValidationConfig scenario_config = config;
  scenario_config.rho_values = smoke ? std::vector<double>{0.3}
                                     : std::vector<double>{0.3, 0.6};
  scenario_config.include_lp = false;
  scenario_config.include_outage = false;
  scenario_config.include_mmpp = false;
  scenario_config.include_fault = false;
  for (const sim::Scenario& scenario :
       {sim::daxlist161_scenario(), sim::synthetic500_scenario()}) {
    const auto rows = eval::sim_validation_scenario(scenario, scenario_config);
    points.insert(points.end(), rows.begin(), rows.end());
  }
  // The pipeline row registers first, so it stays first in the JSON.
  run_pipeline_row(smoke);
  qp::bench::emit_rows(points, [](const eval::SimValidationPoint& p) {
    char rho[32];
    std::snprintf(rho, sizeof rho, "%.2f", p.target_rho);
    std::string name = "SimValidation/" + p.scenario + "/" + p.system + "/" + p.strategy +
                       "/" + p.arrivals + "/rho=" + rho;
    if (p.outage) name += "/outage";
    if (p.fault) name += "/fault";
    return name;
  });
  return qp::bench::run_benchmarks(argc, argv);
}
