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
//   * delta scan             — DeltaEvaluator::objectives_if_moved over one
//                              element's whole target set (every unused
//                              site): the move-invariant table reads once per
//                              client, O(1)-O(k) (Grid) or O(log n) (Majority)
//                              per site; items/s is candidates per second;
//   * local search           — the full re-evaluation route (forced through
//                              the tests/support/full_reevaluation.hpp
//                              seam) vs the delta route end-to-end, for the
//                              network-delay (alpha = 0), load-aware
//                              (alpha > 0), and §6 closest-strategy
//                              objectives (uniform and demand-weighted),
//                              plus the parallel neighborhood scan;
//   * fill kernels           — the fill_element_distances gather, scalar on
//                              baseline x86-64 and vpgatherqpd under
//                              ENABLE_AVX2 (the avx2 counter records which
//                              variant this binary is);
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
#include <limits>
#include <memory>
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
  std::vector<SpeedupRow> rows;
  for (const Config& config : configs) {
    for (const auto& [label, objective] : objectives) {
      const core::test_support::FullReevaluation full{*objective};
      core::LocalSearchOptions naive_obj = naive_options;
      core::LocalSearchOptions delta_obj = delta_options;
      core::LocalSearchOptions parallel_obj = parallel_options;
      naive_obj.objective = &full;
      delta_obj.objective = parallel_obj.objective = objective;
      const double naive_ms =
          time_local_search_ms(matrix, *config.system, config.placement, naive_obj);
      const double delta_ms =
          time_local_search_ms(matrix, *config.system, config.placement, delta_obj);
      const double parallel_ms =
          time_local_search_ms(matrix, *config.system, config.placement, parallel_obj);
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
  // compiles the instrumentation in either way), best-of-5 alternating runs
  // so one scheduler hiccup cannot fake a regression either direction. The
  // hot-loop contract is batch tallying — a handful of shard stores per
  // candidate/round, never per client — and CI pins overhead_pct <= 3 on
  // this row. Results are bitwise identical on/off (tests/obs_test.cpp).
  {
    core::LocalSearchOptions options;
    options.threads = 0;  // Shared pool: thread_pool instrumentation included.
    options.max_rounds = 2;
    const bool was_enabled = qp::obs::enabled();
    double on_ms = std::numeric_limits<double>::infinity();
    double off_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
      qp::obs::set_enabled(true);
      on_ms = std::min(
          on_ms, time_local_search_ms(matrix, grid, configs[0].placement, options));
      qp::obs::set_enabled(false);
      off_ms = std::min(
          off_ms, time_local_search_ms(matrix, grid, configs[0].placement, options));
    }
    qp::obs::set_enabled(was_enabled);
    std::cout << "# Observability overhead: instrumented local search, obs on vs off\n";
    const std::vector<ObsOverheadRow> overhead{
        {on_ms, off_ms, 100.0 * (on_ms - off_ms) / off_ms}};
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
          std::size_t site = 0;
          std::size_t element = 0;
          for (auto _ : state) {
            site = (site + 1) % matrix.size();
            element = (element + 1) % config.placement.universe_size();
            benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
          }
        });
    benchmark::RegisterBenchmark(
        ("EvalKernels/delta_scan/" + config.label).c_str(),
        [&matrix, &config](benchmark::State& state) {
          const core::DeltaEvaluator eval{matrix, *config.system, config.placement};
          std::vector<bool> used(matrix.size(), false);
          for (std::size_t site : config.placement.site_of) used[site] = true;
          std::vector<std::size_t> targets;
          for (std::size_t w = 0; w < matrix.size(); ++w) {
            if (!used[w]) targets.push_back(w);
          }
          std::vector<double> out(targets.size());
          std::size_t element = 0;
          for (auto _ : state) {
            element = (element + 1) % config.placement.universe_size();
            eval.objectives_if_moved(element, targets, out.data());
            benchmark::DoNotOptimize(out.data());
            benchmark::ClobberMemory();
          }
          state.SetItemsProcessed(state.iterations() *
                                  static_cast<std::int64_t>(targets.size()));
        });
    benchmark::RegisterBenchmark(
        ("EvalKernels/delta_candidate_load_aware/" + config.label).c_str(),
        [&matrix, &config, &load_aware](benchmark::State& state) {
          const core::DeltaEvaluator eval{matrix, *config.system, config.placement,
                                          load_aware};
          std::size_t site = 0;
          std::size_t element = 0;
          for (auto _ : state) {
            site = (site + 1) % matrix.size();
            element = (element + 1) % config.placement.universe_size();
            benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
          }
        });
    benchmark::RegisterBenchmark(
        ("EvalKernels/delta_candidate_closest/" + config.label).c_str(),
        [&matrix, &config, &closest](benchmark::State& state) {
          const core::DeltaEvaluator eval{matrix, *config.system, config.placement,
                                          closest};
          std::size_t site = 0;
          std::size_t element = 0;
          for (auto _ : state) {
            site = (site + 1) % matrix.size();
            element = (element + 1) % config.placement.universe_size();
            benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
          }
        });
  }

  // --- The closest-strategy candidate-scan hotspot, before/after: on
  // synthetic-500, objective_if_moved repriced every client's chosen quorum
  // per candidate (~68us). Attaching the ClientCandidateIndex routes the
  // candidate through the site->clients inverted lists instead, touching
  // only the clients whose choice the move can flip or whose loads it
  // shifts; both paths classify a client with the same O(k) grid argmin.
  // The "after" row is the capped-64 configuration the implicit-space
  // 10k-50k searches run (~39us vs ~60us scan); the genuine win is still
  // asymptotic, per-move cost k*O(n) instead of O(n^2) —
  // bench_large_topology's scaling table is the figure. The _exact row is
  // the uncapped mode every dense-matrix search runs (audited against the
  // full scan at level 2): its coverage lists are nearly dense at n=500,
  // yet the pruned classification keeps it under the scan (~47us).
  {
    auto scenario = std::make_shared<sim::Scenario>(sim::synthetic500_scenario());
    auto grid500 = std::make_shared<quorum::GridQuorum>(7);
    auto closest500 =
        std::make_shared<core::ClosestStrategyObjective>(scenario->closest_objective());
    auto placement500 = std::make_shared<core::Placement>(
        core::best_grid_placement(scenario->matrix, 7).placement);
    benchmark::RegisterBenchmark(
        "EvalKernels/closest_candidate_scan/synth500",
        [scenario, grid500, closest500, placement500](benchmark::State& state) {
          const core::DeltaEvaluator eval{scenario->matrix, *grid500, *placement500,
                                          *closest500};
          std::size_t site = 0;
          std::size_t element = 0;
          for (auto _ : state) {
            site = (site + 1) % scenario->matrix.size();
            element = (element + 1) % placement500->universe_size();
            benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
          }
        });
    for (const std::size_t cap : {std::size_t{64}, std::size_t{0}}) {
      const std::string name = cap == 0 ? "EvalKernels/closest_candidate_indexed_exact/synth500"
                                        : "EvalKernels/closest_candidate_indexed/synth500";
      benchmark::RegisterBenchmark(
          name.c_str(),
          [scenario, grid500, closest500, placement500, cap](benchmark::State& state) {
            core::DeltaEvaluator eval{scenario->matrix, *grid500, *placement500,
                                      *closest500};
            const net::KnnIndex knn{scenario->matrix};
            core::ClientCandidateIndex::Config config;
            config.cap = cap;
            const core::ClientCandidateIndex index = core::ClientCandidateIndex::build(
                scenario->matrix, &knn, eval.best_values(), config);
            eval.attach_candidate_index(&index);
            std::size_t site = 0;
            std::size_t element = 0;
            for (auto _ : state) {
              site = (site + 1) % scenario->matrix.size();
              element = (element + 1) % placement500->universe_size();
              benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
            }
          });
    }
  }

  // --- Client-index rebuild schedule, before/after: the exact-mode lists
  // above are built from the INITIAL placement's m1 radii and the old
  // search kept them for the whole run. As the search moves, per-client m1
  // drifts both ways: clients whose radius shrank carry needlessly dense
  // lists, and clients whose radius outgrew their coverage fall into the
  // always-rechecked overflow set. The schedule rebuilds the lists from
  // the current radii every 16 accepted moves (local_search.cpp), keeping
  // lists as tight as the current placement allows and the overflow set
  // empty. Rows, all on the same locally-improved placement: the dense
  // scan, the stale initial-radii lists (before), and lists rebuilt from
  // the current radii (after) — the after row is what the scheduled search
  // actually evaluates candidates with.
  {
    auto scenario = std::make_shared<sim::Scenario>(sim::synthetic500_scenario());
    auto grid500 = std::make_shared<quorum::GridQuorum>(7);
    auto closest500 =
        std::make_shared<core::ClosestStrategyObjective>(scenario->closest_objective());
    auto initial500 = std::make_shared<core::Placement>(
        core::best_grid_placement(scenario->matrix, 7).placement);
    core::LocalSearchOptions tighten;
    tighten.objective = closest500.get();
    tighten.threads = 1;
    tighten.max_rounds = 60;
    auto tightened = std::make_shared<core::Placement>(
        core::local_search_placement(scenario->matrix, *grid500, *initial500, tighten)
            .placement);
    const auto register_candidate_row = [&](const std::string& name, bool stale_radii,
                                            bool indexed) {
      benchmark::RegisterBenchmark(
          name.c_str(), [scenario, grid500, closest500, initial500, tightened,
                         stale_radii, indexed](benchmark::State& state) {
            core::DeltaEvaluator eval{scenario->matrix, *grid500, *tightened,
                                      *closest500};
            const net::KnnIndex knn{scenario->matrix};
            std::optional<core::ClientCandidateIndex> index;
            if (indexed) {
              // Stale = the initial placement's radii (what the search held
              // before the schedule); fresh = the tightened placement's.
              const core::DeltaEvaluator initial_eval{scenario->matrix, *grid500,
                                                      *initial500, *closest500};
              index = core::ClientCandidateIndex::build(
                  scenario->matrix, &knn,
                  stale_radii ? initial_eval.best_values() : eval.best_values(), {});
              eval.attach_candidate_index(&*index);
            }
            std::size_t site = 0;
            std::size_t element = 0;
            for (auto _ : state) {
              site = (site + 1) % scenario->matrix.size();
              element = (element + 1) % tightened->universe_size();
              benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
            }
          });
    };
    register_candidate_row("EvalKernels/closest_localopt_scan/synth500", false, false);
    register_candidate_row("EvalKernels/closest_localopt_exact_stale/synth500", true,
                           true);
    register_candidate_row("EvalKernels/closest_localopt_exact_rebuilt/synth500", false,
                           true);
  }

  // --- The fill_element_distances gather (scalar on baseline x86-64,
  // 4-lane vpgatherqpd under ENABLE_AVX2, 8-lane masked under
  // ENABLE_AVX512). The avx2/avx512 counters record the variant, so the
  // builds' rows land side by side after merge_shards.py. n = 49 is
  // the paper's largest universe; n = 2048 is a many-to-one stress shape.
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
#if defined(__AVX2__)
          state.counters["avx2"] = 1.0;
#else
          state.counters["avx2"] = 0.0;
#endif
#if defined(__AVX512F__)
          state.counters["avx512"] = 1.0;
#else
          state.counters["avx512"] = 0.0;
#endif
        });
  }

  // --- The vectorized reduction kernels the evaluations bottom out in.
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
  }

  return qp::bench::run_benchmarks(argc, argv);
}
