// Evaluation-kernel benchmark: quantifies the layers of the allocation-free
// evaluation subsystem on the paper's n=49 configurations (Grid 7x7 and
// Majority 25/49) over a 200-client topology:
//   * naive objective        — the seed code path: per-client allocation +
//                              copy + sort (+ lgamma-based CDF before the
//                              weight cache) per evaluation;
//   * workspace objective    — flat reusable buffers + cached order-stat
//                              weights (network_delay_objective()
//                              .evaluate_ws);
//   * delta candidate        — DeltaEvaluator::objective_if_moved, one
//                              candidate's pass over the clients against
//                              the cached tables instead of a full rebuild;
//   * delta scan / round     — DeltaEvaluator::objectives_if_moved over
//                              every unused site, for one element (scan) or
//                              every element in one block (round): one pass
//                              over the clients that does each (client,
//                              site)'s work once for the block — the
//                              candidate value, the Grid row/column
//                              reductions, the Majority ranks — then O(1)
//                              per (element, site); items/s is candidates
//                              per second;
//   * local search           — the full re-evaluation route (forced through
//                              the tests/support/full_reevaluation.hpp
//                              seam) vs the delta route end-to-end, for the
//                              network-delay (alpha = 0), load-aware
//                              (alpha > 0), and §6 closest-strategy
//                              objectives (uniform and demand-weighted),
//                              plus the parallel neighborhood scan;
//   * fill kernels           — the fill_element_distances gather;
//   * simd kernels           — the common/simd_kernels.hpp reductions every
//                              per-client evaluation bottoms out in.
// The headline counters are speedup_vs_naive for delta local search, which
// the acceptance criteria pin at >= 5x for alpha = 0, alpha > 0, AND the
// closest-strategy objective.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/simd_kernels.hpp"
#include "core/client_index.hpp"
#include "core/delta_eval.hpp"
#include "core/eval_workspace.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "net/knn_index.hpp"
#include "net/synthetic.hpp"
#include "obs/metrics.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "sim/scenario.hpp"
#include "support/full_reevaluation.hpp"

namespace {

using namespace qp;

/// The seed's objective implementation: one allocated distance row and the
/// allocating expected_max_uniform per client.
double naive_objective(const net::LatencyMatrix& matrix,
                       const quorum::QuorumSystem& system,
                       const core::Placement& placement) {
  double total = 0.0;
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    const std::vector<double>& row = matrix.row(v);
    std::vector<double> values(placement.universe_size());
    for (std::size_t u = 0; u < values.size(); ++u) values[u] = row[placement.site_of[u]];
    total += system.expected_max_uniform(values);
  }
  return total / static_cast<double>(matrix.size());
}

struct Config {
  std::string label;
  const quorum::QuorumSystem* system;
  core::Placement placement;
};

/// Naive vs delta vs parallel local search, one (config, objective) pair.
struct SpeedupRow {
  std::string config;
  std::string objective;
  double naive_ms;
  double delta_ms;
  double parallel_ms;
  double speedup;

  template <class F>
  void columns(F&& f) const {
    f("config", config);
    f("objective", objective);
    f("naive_search_ms", naive_ms);
    f("delta_search_ms", delta_ms);
    f("parallel_search_ms", parallel_ms);
    f("speedup_vs_naive", speedup);
  }
};

struct ObsOverheadRow {
  double on_ms;
  double off_ms;
  double overhead_pct;

  template <class F>
  void columns(F&& f) const {
    f("on_ms", on_ms);
    f("off_ms", off_ms);
    f("overhead_pct", overhead_pct);
  }
};

double median(std::vector<double> values) {
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 != 0) return *mid;
  return 0.5 * (*mid + *std::max_element(values.begin(), mid));
}

double time_local_search_ms(const net::LatencyMatrix& matrix,
                            const quorum::QuorumSystem& system,
                            const core::Placement& initial,
                            const core::LocalSearchOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const core::LocalSearchResult result =
      core::local_search_placement(matrix, system, initial, options);
  benchmark::DoNotOptimize(result.objective);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const net::LatencyMatrix matrix = net::small_synth(200, 2007);
  const quorum::GridQuorum grid{7};
  const quorum::MajorityQuorum majority{49, 25};

  common::Rng rng{2007};
  std::vector<Config> configs;
  configs.push_back(Config{"grid49", &grid,
                           core::Placement{rng.sample_without_replacement(matrix.size(), 49)}});
  configs.push_back(Config{"maj49", &majority,
                           core::Placement{rng.sample_without_replacement(matrix.size(), 49)}});

  // --- Headline comparison: naive vs delta local search, identical rounds,
  // across the objective zoo. Two rounds bound the naive runtime while
  // exercising a full neighborhood scan per round (49 elements x 151 free
  // sites x 200 clients). alpha = 0.007 * 4000 matches the §7 mid-demand
  // level; the closest rows add the §6 argmin-quorum objective, uniform and
  // Pareto-demand-weighted.
  const core::LoadAwareObjective load_aware = core::LoadAwareObjective::for_demand(4000.0);
  const core::ClosestStrategyObjective closest = core::ClosestStrategyObjective::for_demand(4000.0);
  std::vector<double> pareto_demand(matrix.size());
  {
    common::Rng demand_rng{2026};
    for (double& d : pareto_demand) {
      d = 4000.0 * std::pow(1.0 - demand_rng.uniform(), -1.0 / 1.6);
    }
  }
  const core::ClosestStrategyObjective closest_weighted =
      core::ClosestStrategyObjective::for_demand(std::span<const double>{pareto_demand});
  core::LocalSearchOptions naive_options;
  naive_options.max_rounds = 2;
  core::LocalSearchOptions delta_options;
  delta_options.threads = 1;
  delta_options.max_rounds = 2;
  core::LocalSearchOptions parallel_options = delta_options;
  parallel_options.threads = 0;  // Shared pool (QP_THREADS / hardware).

  const std::vector<std::pair<std::string, const core::Objective*>> objectives{
      {"alpha0", &core::network_delay_objective()},
      {"load_aware", &load_aware},
      {"closest", &closest},
      {"closest_weighted", &closest_weighted},
  };
  // One delta or parallel search takes tens to hundreds of ms and one run
  // swings by up to 2x on a shared machine, so those two columns are the
  // median of kSearchRuns searches. The naive column is one search: it only
  // feeds speedup_vs_naive.
  constexpr std::size_t kSearchRuns = 5;
  std::vector<SpeedupRow> rows;
  for (const Config& config : configs) {
    for (const auto& [label, objective] : objectives) {
      const core::test_support::FullReevaluation full{*objective};
      core::LocalSearchOptions naive_obj = naive_options;
      core::LocalSearchOptions delta_obj = delta_options;
      core::LocalSearchOptions parallel_obj = parallel_options;
      naive_obj.objective = &full;
      delta_obj.objective = parallel_obj.objective = objective;
      const auto median_ms = [&](const core::LocalSearchOptions& options) {
        std::vector<double> ms(kSearchRuns);
        for (double& run : ms) {
          run = time_local_search_ms(matrix, *config.system, config.placement, options);
        }
        return median(std::move(ms));
      };
      const double naive_ms =
          time_local_search_ms(matrix, *config.system, config.placement, naive_obj);
      const double delta_ms = median_ms(delta_obj);
      const double parallel_ms = median_ms(parallel_obj);
      rows.push_back(SpeedupRow{config.label, label, naive_ms, delta_ms, parallel_ms,
                                naive_ms / delta_ms});
    }
  }

  std::cout << "# Evaluation kernels: naive vs workspace vs delta (200 clients, n=49)\n";
  qp::bench::emit_rows(rows, [](const SpeedupRow& row) {
    return "EvalKernels/local_search_speedup/" + row.config + "/" + row.objective;
  });

  // --- Observability overhead guard: the instrumented delta local search
  // with obs metrics recording ON vs OFF (runtime toggle; the binary
  // compiles the instrumentation in either way). A two-round search takes
  // a few ms on the shared pool, so one run's scheduler noise is several
  // percent either way: the row reports the median of kObsOverheadPairs
  // alternating on/off pairs (the pair's order alternates too), on_ms and
  // off_ms as each side's median and overhead_pct as the median per-pair
  // difference. The hot-loop contract is batch tallying — a handful of
  // shard stores per candidate/round, never per client — and CI pins
  // overhead_pct <= 3 on this row. Results are bitwise identical on/off
  // (tests/obs_test.cpp).
  {
    constexpr std::size_t kObsOverheadPairs = 64;
    core::LocalSearchOptions options;
    options.threads = 0;  // Shared pool: thread_pool instrumentation included.
    options.max_rounds = 2;
    const bool was_enabled = qp::obs::enabled();
    const auto timed = [&](bool on) {
      qp::obs::set_enabled(on);
      return time_local_search_ms(matrix, grid, configs[0].placement, options);
    };
    (void)timed(true);  // Warm-up: pool threads and thread-local scratch.
    std::vector<double> on_ms;
    std::vector<double> off_ms;
    std::vector<double> overhead_pct;
    for (std::size_t pair = 0; pair < kObsOverheadPairs; ++pair) {
      const bool on_first = pair % 2 == 0;
      const double first = timed(on_first);
      const double second = timed(!on_first);
      on_ms.push_back(on_first ? first : second);
      off_ms.push_back(on_first ? second : first);
      overhead_pct.push_back(100.0 * (on_ms.back() - off_ms.back()) / off_ms.back());
    }
    qp::obs::set_enabled(was_enabled);
    std::cout << "# Observability overhead: instrumented local search, obs on vs off\n";
    const std::vector<ObsOverheadRow> overhead{
        {median(on_ms), median(off_ms), median(overhead_pct)}};
    qp::bench::emit_rows(overhead, [](const ObsOverheadRow&) {
      return std::string{"EvalKernels/obs_overhead/local_search"};
    });
  }

  // --- Genuine timing benchmarks of the individual kernels.
  for (const Config& config : configs) {
    benchmark::RegisterBenchmark(
        ("EvalKernels/objective_naive/" + config.label).c_str(),
        [&matrix, &config](benchmark::State& state) {
          for (auto _ : state) {
            benchmark::DoNotOptimize(
                naive_objective(matrix, *config.system, config.placement));
          }
        });
    benchmark::RegisterBenchmark(
        ("EvalKernels/objective_workspace/" + config.label).c_str(),
        [&matrix, &config](benchmark::State& state) {
          core::EvalWorkspace workspace;
          for (auto _ : state) {
            benchmark::DoNotOptimize(core::network_delay_objective().evaluate_ws(
                matrix, *config.system, config.placement, workspace));
          }
        });
    benchmark::RegisterBenchmark(
        ("EvalKernels/delta_candidate/" + config.label).c_str(),
        [&matrix, &config](benchmark::State& state) {
          const core::DeltaEvaluator eval{matrix, *config.system, config.placement};
          bench::CandidateCycle cycle{config.placement, matrix.size()};
          for (auto _ : state) {
            const auto [element, site] = cycle.next();
            benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
          }
        });
    benchmark::RegisterBenchmark(
        ("EvalKernels/delta_scan/" + config.label).c_str(),
        [&matrix, &config](benchmark::State& state) {
          const core::DeltaEvaluator eval{matrix, *config.system, config.placement};
          const std::vector<std::size_t> targets =
              bench::CandidateCycle{config.placement, matrix.size()}.sites();
          std::vector<double> out(targets.size());
          std::size_t element = 0;
          for (auto _ : state) {
            element = (element + 1) % config.placement.universe_size();
            eval.objectives_if_moved({&element, 1}, targets, out.data());
            benchmark::DoNotOptimize(out.data());
            benchmark::ClobberMemory();
          }
          state.SetItemsProcessed(state.iterations() *
                                  static_cast<std::int64_t>(targets.size()));
        });
    benchmark::RegisterBenchmark(
        ("EvalKernels/delta_round/" + config.label).c_str(),
        [&matrix, &config](benchmark::State& state) {
          const core::DeltaEvaluator eval{matrix, *config.system, config.placement};
          const std::vector<std::size_t> targets =
              bench::CandidateCycle{config.placement, matrix.size()}.sites();
          std::vector<std::size_t> elements(config.placement.universe_size());
          std::iota(elements.begin(), elements.end(), std::size_t{0});
          std::vector<double> out(elements.size() * targets.size());
          for (auto _ : state) {
            eval.objectives_if_moved(elements, targets, out.data());
            benchmark::DoNotOptimize(out.data());
            benchmark::ClobberMemory();
          }
          state.SetItemsProcessed(state.iterations() *
                                  static_cast<std::int64_t>(out.size()));
        });
    benchmark::RegisterBenchmark(
        ("EvalKernels/delta_candidate_load_aware/" + config.label).c_str(),
        [&matrix, &config, &load_aware](benchmark::State& state) {
          const core::DeltaEvaluator eval{matrix, *config.system, config.placement,
                                          load_aware};
          bench::CandidateCycle cycle{config.placement, matrix.size()};
          for (auto _ : state) {
            const auto [element, site] = cycle.next();
            benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
          }
        });
    benchmark::RegisterBenchmark(
        ("EvalKernels/delta_candidate_closest/" + config.label).c_str(),
        [&matrix, &config, &closest](benchmark::State& state) {
          const core::DeltaEvaluator eval{matrix, *config.system, config.placement,
                                          closest};
          bench::CandidateCycle cycle{config.placement, matrix.size()};
          for (auto _ : state) {
            const auto [element, site] = cycle.next();
            benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
          }
        });
  }

  // --- The closest-strategy candidate scan on synthetic-500 (Grid 7x7):
  // the full scan reprices every client's chosen quorum per candidate;
  // attaching a ClientCandidateIndex capped at 64 sites per client routes
  // the candidate through the site->clients inverted lists instead,
  // touching only the clients whose choice the move can flip or whose loads
  // it shifts. Both classify a client with the same O(k) grid argmin. The
  // capped route is the one implicit-space 10k-50k searches run, where the
  // win is asymptotic (per-move cost k*O(n) instead of O(n^2);
  // bench_large_topology's scaling table is the figure). On this dense
  // matrix it does not beat the scan — ten runs on one 4-core Xeon host
  // measured the scan at 49-76 us (median 61) and the capped route at 52-89
  // us (median 70) per candidate — which is why dense-matrix searches keep
  // the full scan. The localopt row scores the same scan at a locally
  // improved placement, where fewer choices flip per candidate.
  {
    auto scenario = std::make_shared<sim::Scenario>(sim::synthetic500_scenario());
    auto grid500 = std::make_shared<quorum::GridQuorum>(7);
    auto closest500 =
        std::make_shared<core::ClosestStrategyObjective>(scenario->closest_objective());
    auto placement500 = std::make_shared<core::Placement>(
        core::best_grid_placement(scenario->matrix, 7).placement);
    core::LocalSearchOptions tighten;
    tighten.objective = closest500.get();
    tighten.threads = 1;
    tighten.max_rounds = 60;
    auto tightened = std::make_shared<core::Placement>(
        core::local_search_placement(scenario->matrix, *grid500, *placement500, tighten)
            .placement);
    const auto register_candidate_row = [&](const std::string& name,
                                            std::shared_ptr<core::Placement> placement,
                                            bool indexed) {
      benchmark::RegisterBenchmark(
          name.c_str(),
          [scenario, grid500, closest500, placement, indexed](benchmark::State& state) {
            core::DeltaEvaluator eval{scenario->matrix, *grid500, *placement, *closest500};
            std::optional<core::ClientCandidateIndex> index;
            if (indexed) {
              index = core::ClientCandidateIndex::build(net::KnnIndex{scenario->matrix}, 64);
              eval.attach_candidate_index(&*index);
            }
            bench::CandidateCycle cycle{*placement, scenario->matrix.size()};
            for (auto _ : state) {
              const auto [element, site] = cycle.next();
              benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
            }
          });
    };
    register_candidate_row("EvalKernels/closest_candidate_scan/synth500", placement500,
                           false);
    register_candidate_row("EvalKernels/closest_candidate_indexed/synth500", placement500,
                           true);
    register_candidate_row("EvalKernels/closest_localopt_scan/synth500", tightened, false);
  }

  // --- The fill_element_distances gather. n = 49 is the paper's largest
  // universe; n = 2048 is a many-to-one stress shape.
  for (const std::size_t universe : {std::size_t{49}, std::size_t{2048}}) {
    common::Rng gather_rng{universe};
    core::Placement placement;
    placement.site_of.resize(universe);
    for (std::size_t u = 0; u < universe; ++u) {
      placement.site_of[u] = static_cast<std::size_t>(gather_rng.below(matrix.size()));
    }
    benchmark::RegisterBenchmark(
        ("EvalKernels/fill_element_distances/n=" + std::to_string(universe)).c_str(),
        [&matrix, placement](benchmark::State& state) {
          std::vector<double> out;
          std::size_t client = 0;
          for (auto _ : state) {
            client = (client + 1) % matrix.size();
            core::fill_element_distances(matrix, placement, client, out);
            benchmark::DoNotOptimize(out.data());
          }
        });
  }

  // --- The reduction kernels the evaluations bottom out in
  // (common/simd_kernels.hpp). max_with_bound_sum runs on 7 values, the
  // Grid 7x7 row the block scan sums six times per client.
  {
    common::Rng kernel_rng{11};
    auto values = std::make_shared<std::vector<double>>(4096);
    auto weights = std::make_shared<std::vector<double>>(4096);
    for (double& x : *values) x = kernel_rng.uniform();
    for (double& x : *weights) x = kernel_rng.uniform();
    benchmark::RegisterBenchmark(
        "EvalKernels/simd_max_reduce/4096", [values](benchmark::State& state) {
          for (auto _ : state) {
            benchmark::DoNotOptimize(common::max_reduce(*values));
          }
        });
    benchmark::RegisterBenchmark(
        "EvalKernels/simd_weighted_dot/4096",
        [values, weights](benchmark::State& state) {
          for (auto _ : state) {
            benchmark::DoNotOptimize(common::weighted_dot(*values, *weights));
          }
        });
    benchmark::RegisterBenchmark(
        "EvalKernels/simd_max_with_bound_sum/7", [values](benchmark::State& state) {
          const std::span<const double> row{values->data(), 7};
          for (auto _ : state) {
            benchmark::DoNotOptimize(common::max_with_bound_sum(0.5, row));
          }
        });
  }

  return qp::bench::run_benchmarks(argc, argv);
}
