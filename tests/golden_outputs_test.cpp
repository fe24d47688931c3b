// Golden-output digests: the eval sweeps behind the paper's figures, plus
// the two latency generators under them, at their bench configurations.
// Each case prints its rows through eval::print_csv on a std::hexfloat
// stream and compares them with tests/golden/<name>.csv, so a change meant
// to keep the numbers (a setting turned into a constant, a loop reordered)
// has to reproduce every row bit for bit.
//
// Rows are compared as exact strings on every build type: the reduction
// kernels in common/simd_kernels.hpp fix their summation order in the
// source, so Debug, sanitizer and optimized builds print the same bits. A
// failing case names the row and writes its actual output to
// golden_actual/<name>.csv under the test's working directory; copy that
// file over tests/golden/<name>.csv once a change in output is intended.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/delta_eval.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "eval/figures.hpp"
#include "eval/sim_validation.hpp"
#include "eval/sweeps.hpp"
#include "net/embedding.hpp"
#include "net/synthetic.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/tree.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/scenario.hpp"

#ifndef QP_GOLDEN_DIR
#error "QP_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace qp::eval {
namespace {

const net::LatencyMatrix& planetlab50() {
  static const net::LatencyMatrix m = net::planetlab50_synth();
  return m;
}

std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in{text};
  while (std::getline(in, part, separator)) parts.push_back(part);
  return parts;
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::filesystem::path path =
      std::filesystem::path{QP_GOLDEN_DIR} / (name + ".csv");
  std::ifstream in{path};
  const std::string golden{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
  if (in && golden == actual) return;

  const std::vector<std::string> golden_rows = split(golden, '\n');
  const std::vector<std::string> actual_rows = split(actual, '\n');
  bool agree = static_cast<bool>(in);
  if (!agree) ADD_FAILURE() << "no golden file " << path;
  const std::size_t common = std::min(golden_rows.size(), actual_rows.size());
  for (std::size_t i = 0; agree && i < common; ++i) {
    if (golden_rows[i] != actual_rows[i]) {
      ADD_FAILURE() << name << " row " << i << " differs\n  golden: " << golden_rows[i]
                    << "\n  actual: " << actual_rows[i];
      agree = false;
    }
  }
  if (agree && golden_rows.size() != actual_rows.size()) {
    ADD_FAILURE() << name << ": " << actual_rows.size() << " rows, golden has "
                  << golden_rows.size();
    agree = false;
  }
  if (agree) return;

  std::filesystem::create_directories("golden_actual");
  const std::filesystem::path dump = std::filesystem::path{"golden_actual"} / (name + ".csv");
  std::ofstream{dump} << actual;
  ADD_FAILURE() << name << ": actual rows written to "
                << std::filesystem::absolute(dump).string();
}

template <typename Point>
std::string hexfloat_csv(const std::vector<Point>& points) {
  std::ostringstream out;
  out << std::hexfloat;
  print_csv(out, points);
  return out.str();
}

TEST(GoldenOutputs, Fig6_3LowDemand) {
  expect_golden("fig6_3", hexfloat_csv(low_demand_sweep(planetlab50())));
}

TEST(GoldenOutputs, Fig6_4GridDemand) {
  const std::vector<double> demands{1000.0, 4000.0};
  expect_golden("fig6_4", hexfloat_csv(grid_demand_sweep(net::daxlist161_synth(), demands)));
}

TEST(GoldenOutputs, Fig7_6CapacitySweep) {
  expect_golden("fig7_6", hexfloat_csv(capacity_sweep(planetlab50(), {})));
}

TEST(GoldenOutputs, Fig7_7NonuniformCaps) {
  CapacitySweepConfig config;
  config.include_nonuniform = true;
  expect_golden("fig7_7", hexfloat_csv(capacity_sweep(planetlab50(), config)));
}

TEST(GoldenOutputs, Fig8_9Iterative) {
  expect_golden("fig8_9", hexfloat_csv(iterative_sweep(planetlab50(), {})));
}

// bench_sim_engine's QP_SIM_SMOKE horizon, with every optional row family on.
TEST(GoldenOutputs, SimValidationSmoke) {
  SimValidationConfig config;
  config.rho_values = {0.3};
  config.include_lp = true;
  config.include_outage = true;
  config.include_mmpp = true;
  config.include_fault = true;
  config.warmup_ms = 200.0;
  config.duration_ms = 1'000.0;
  config.replications = 1;
  expect_golden("sim_validation_smoke",
                hexfloat_csv(sim_validation_sweep(planetlab50(), config)));
}

// The engine paths the sim-validation smoke leaves out (it fails over by
// Oracle with zero backoff): a FaultInjector crash schedule, timeouts,
// exponential backoff with jitter (BeginRetry events) and Suspicion failover
// on a Grid(5x5) over Planetlab-50, open loop; then the same storm with two
// closed-loop clients per site; then open loop at rho 0.3 with a four-message
// queue limit, so overflow rejections feed the retry path too.
TEST(GoldenOutputs, EngineRetrySuspicionSmoke) {
  const net::LatencyMatrix& matrix = planetlab50();
  const quorum::GridQuorum grid{5};
  const core::Placement placement = core::best_grid_placement(matrix, 5).placement;
  const std::vector<double> load =
      core::site_loads_balanced(grid, placement, matrix.size());
  const std::vector<double> ones(matrix.size(), 1.0);

  sim::EngineConfig base;
  base.warmup_ms = 200.0;
  base.duration_ms = 1'500.0;
  base.replications = 2;
  base.master_seed = 11;
  base.retry.timeout_ms = 250.0;
  base.retry.max_attempts = 3;
  base.retry.backoff_base_ms = 5.0;
  base.retry.jitter_frac = 0.25;
  base.failover = sim::FailoverMode::Suspicion;
  base.suspicion_ttl_ms = 300.0;
  sim::FaultInjectorConfig fault;
  fault.seed = 5;
  fault.horizon_ms = base.warmup_ms + base.duration_ms;
  fault.site = sim::FaultProcess::for_down_probability(0.03, 300.0);
  base.outages = sim::FaultInjector{fault}.schedule(matrix.size());

  struct Run {
    const char* name;
    sim::EngineConfig config;
    double rho;
  };
  std::vector<Run> runs{{"open_suspicion", base, 0.5},
                        {"closed_loop", base, 0.5},
                        {"finite_queue", base, 0.3}};
  runs[1].config.closed_loop_clients = 2;
  runs[2].config.queue_capacity = 4;

  std::ostringstream out;
  out << std::hexfloat
      << "run,issued,completed,failed,abandoned,retries,stale_replies,"
         "rejected_arrivals,dropped_messages,mean_response_ms,p99_ms,"
         "degraded_p99_ms\n";
  for (const Run& run : runs) {
    const std::vector<double> rates =
        sim::scale_rates_to_peak_utilization(ones, load, 1.0, run.rho);
    const sim::EngineResult r = sim::run_engine(matrix, grid, placement, rates, run.config);
    out << run.name << ',' << r.issued << ',' << r.completed << ',' << r.failed << ','
        << r.abandoned << ',' << r.retries << ',' << r.stale_replies << ','
        << r.rejected_arrivals << ',' << r.dropped_messages << ','
        << r.mean_response_ms << ',' << r.p99_ms << ',' << r.degraded_p99_ms << '\n';
  }
  expect_golden("engine_retry_suspicion", out.str());
}

// The engine's remaining ways to lose a message, on the same Grid(5x5) over
// Planetlab-50: with the retry machinery off, a FaultInjector crash schedule
// (outage drops fail their request once its last message is settled) and a
// four-message queue limit past saturation (overflow rejections do the
// same); then the crash schedule again under Oracle failover with
// exponential backoff and jitter, where lost messages leave the attempt to
// its timeout.
TEST(GoldenOutputs, EngineLossPaths) {
  const net::LatencyMatrix& matrix = planetlab50();
  const quorum::GridQuorum grid{5};
  const core::Placement placement = core::best_grid_placement(matrix, 5).placement;
  const std::vector<double> load =
      core::site_loads_balanced(grid, placement, matrix.size());
  const std::vector<double> ones(matrix.size(), 1.0);

  sim::EngineConfig base;
  base.warmup_ms = 200.0;
  base.duration_ms = 1'500.0;
  base.replications = 2;
  base.master_seed = 23;
  sim::FaultInjectorConfig fault;
  fault.seed = 9;
  fault.horizon_ms = base.warmup_ms + base.duration_ms;
  fault.site = sim::FaultProcess::for_down_probability(0.03, 300.0);
  const std::vector<sim::ServerOutage> storm =
      sim::FaultInjector{fault}.schedule(matrix.size());

  struct Run {
    const char* name;
    sim::EngineConfig config;
    double rho;
  };
  std::vector<Run> runs{{"legacy_drops", base, 0.5},
                        {"legacy_rejections", base, 0.9},
                        {"oracle_backoff", base, 0.3}};
  runs[0].config.outages = storm;
  runs[1].config.queue_capacity = 4;
  runs[2].config.outages = storm;
  runs[2].config.retry.timeout_ms = 200.0;
  runs[2].config.retry.max_attempts = 3;
  runs[2].config.retry.backoff_base_ms = 5.0;
  runs[2].config.retry.jitter_frac = 0.25;
  runs[2].config.failover = sim::FailoverMode::Oracle;

  std::ostringstream out;
  out << std::hexfloat
      << "run,issued,completed,failed,abandoned,retries,stale_replies,"
         "dropped_messages,rejected_arrivals,p50_ms,p99_ms,degraded_p99_ms\n";
  for (const Run& run : runs) {
    const std::vector<double> rates =
        sim::scale_rates_to_peak_utilization(ones, load, 1.0, run.rho);
    const sim::EngineResult r = sim::run_engine(matrix, grid, placement, rates, run.config);
    out << run.name << ',' << r.issued << ',' << r.completed << ',' << r.failed << ','
        << r.abandoned << ',' << r.retries << ',' << r.stale_replies << ','
        << r.dropped_messages << ',' << r.rejected_arrivals << ',' << r.p50_ms << ','
        << r.p99_ms << ',' << r.degraded_p99_ms << '\n';
  }
  expect_golden("engine_loss_paths", out.str());
}

TEST(GoldenOutputs, EmbeddingFitStats) {
  const net::EmbeddingStats stats = net::fit_latency_embedding(planetlab50()).stats;
  std::ostringstream out;
  out << std::hexfloat
      << "sample_pairs,mean_rel_error,median_rel_error,p95_rel_error,max_abs_error_ms\n"
      << stats.sample_pairs << ',' << stats.mean_rel_error << ','
      << stats.median_rel_error << ',' << stats.p95_rel_error << ','
      << stats.max_abs_error_ms << '\n';
  expect_golden("embedding_stats", out.str());
}

TEST(GoldenOutputs, SparseScenarioRtts) {
  const sim::SparseScenario scenario = sim::make_sparse_scenario({.site_count = 500});
  std::ostringstream out;
  out << std::hexfloat << "rtt_ms_from_site_0\n";
  for (std::size_t j = 0; j < scenario.site_count(); ++j) {
    out << (j == 0 ? "" : ",") << scenario.space.rtt(0, j);
  }
  out << '\n';
  expect_golden("sparse_scenario_rtts", out.str());
}

// DeltaEvaluator candidate scores, recorded from the element-major kernel
// that the client-major block scan replaced (the rows this test prints,
// each block call made there as one objectives_if_moved(element, sites, row)
// call per element, the batch entry before the block): a few elements of
// Grid 7x7, Grid 3x3, Majority(49, 25), FPP(3) and Tree(2), each scored
// against its own site and a spread of unused sites, under four balanced
// objectives on a dense matrix and on an embedding; each element's row must
// also match its one-element block bit for bit. Then a plan-161-shaped
// search trajectory (Grid 7x7, demand-weighted load-aware objective, least
// central anchor): one row per round with the move taken, its scored
// objective and the evaluator's objective after the move, and the
// production search's result.
TEST(GoldenOutputs, DeltaBlockScan) {
  constexpr std::size_t kSites = 61;
  const sim::Scenario dense_scenario = sim::make_scenario({.site_count = kSites});
  const sim::SparseScenario sparse_scenario = sim::make_sparse_scenario({.site_count = kSites});
  struct Space {
    const char* name;
    const net::LatencySpace* space;
    std::span<const double> demand;
  };
  const Space spaces[] = {{"dense", &dense_scenario.matrix, dense_scenario.client_demand},
                          {"embedding", &sparse_scenario.space, sparse_scenario.client_demand}};
  const quorum::GridQuorum grid7{7};
  const quorum::GridQuorum grid3{3};
  const quorum::MajorityQuorum majority{49, 25};
  const quorum::FppQuorum fpp{3};
  const quorum::TreeQuorum tree{2};
  const quorum::QuorumSystem* systems[] = {&grid7, &grid3, &majority, &fpp, &tree};

  std::ostringstream out;
  out << std::hexfloat << "space,system,objective,element,own_site,scores\n";
  for (const Space& space : spaces) {
    const core::NetworkDelayObjective weighted{space.demand};
    const core::LoadAwareObjective load_aware{7.0};
    const core::LoadAwareObjective load_aware_weighted{7.0, space.demand};
    const core::Objective* objectives[] = {&core::network_delay_objective(), &weighted,
                                           &load_aware, &load_aware_weighted};
    for (const quorum::QuorumSystem* system : systems) {
      const std::size_t n = system->universe_size();
      common::Rng rng{n};
      const core::Placement placement{rng.sample_without_replacement(kSites, n)};
      std::vector<bool> used(kSites, false);
      for (std::size_t site : placement.site_of) used[site] = true;
      std::vector<std::size_t> free_sites;
      for (std::size_t w = 0; w < kSites; ++w) {
        if (!used[w]) free_sites.push_back(w);
      }
      const std::size_t stride = std::max<std::size_t>(1, free_sites.size() / 12);
      std::vector<std::size_t> targets;
      for (std::size_t i = 0; i < free_sites.size(); i += stride) {
        targets.push_back(free_sites[i]);
      }
      const std::vector<std::size_t> elements{0, 1, n / 2, n - 1};
      for (const core::Objective* objective : objectives) {
        const core::DeltaEvaluator eval{*space.space, *system, placement, *objective};
        std::vector<double> scores(elements.size() * targets.size());
        eval.objectives_if_moved(elements, targets, scores.data());
        for (std::size_t i = 0; i < elements.size(); ++i) {
          // The one-element block (its own kernel instantiation) must match
          // its row of the block bit for bit.
          std::vector<double> row(targets.size());
          eval.objectives_if_moved({&elements[i], 1}, targets, row.data());
          EXPECT_EQ(std::memcmp(row.data(), scores.data() + i * targets.size(),
                                row.size() * sizeof(double)),
                    0)
              << space.name << ' ' << system->name() << ' ' << objective->name()
              << " element " << elements[i];
          const std::size_t own = placement.site_of[elements[i]];
          out << space.name << ',' << system->name() << ',' << objective->name() << ','
              << elements[i] << ',' << eval.objective_if_moved(elements[i], own);
          for (std::size_t j = 0; j < targets.size(); ++j) {
            out << ',' << scores[i * targets.size() + j];
          }
          out << '\n';
        }
      }
    }
  }

  const sim::Scenario plan = sim::make_scenario({.site_count = 161});
  const net::LatencyMatrix& m = plan.matrix;
  const core::LoadAwareObjective objective = plan.load_objective();
  std::size_t anchor = 0;
  for (std::size_t v = 1; v < m.size(); ++v) {
    if (net::average_rtt_from(m, v) > net::average_rtt_from(m, anchor)) anchor = v;
  }
  const core::Placement start = core::grid_placement_for_client(m, 7, anchor);
  core::DeltaEvaluator eval{m, grid7, start, objective};
  std::vector<std::size_t> elements(grid7.universe_size());
  for (std::size_t u = 0; u < elements.size(); ++u) elements[u] = u;
  constexpr std::size_t kRounds = 20;
  out << "round,element,from,to,scored,objective\n";
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<bool> used(m.size(), false);
    for (std::size_t site : eval.placement().site_of) used[site] = true;
    std::vector<std::size_t> free_sites;
    for (std::size_t w = 0; w < m.size(); ++w) {
      if (!used[w]) free_sites.push_back(w);
    }
    std::vector<double> scores(elements.size() * free_sites.size());
    eval.objectives_if_moved(elements, free_sites, scores.data());
    std::size_t best = scores.size();
    double best_objective = eval.objective();
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] < best_objective - 1e-9) {
        best_objective = scores[i];
        best = i;
      }
    }
    if (best == scores.size()) break;
    const std::size_t element = best / free_sites.size();
    const std::size_t from = eval.placement().site_of[element];
    const std::size_t to = free_sites[best % free_sites.size()];
    eval.apply_move(element, to);
    out << round << ',' << element << ',' << from << ',' << to << ',' << best_objective
        << ',' << eval.objective() << '\n';
  }
  core::LocalSearchOptions options;
  options.max_rounds = kRounds;
  options.objective = &objective;
  options.threads = 2;
  const core::LocalSearchResult search = core::local_search_placement(m, grid7, start, options);
  out << "search_moves,search_objective,placement\n" << search.moves << ',' << search.objective;
  for (std::size_t site : search.placement.site_of) out << ',' << site;
  out << '\n';
  expect_golden("delta_block_scan", out.str());
}

}  // namespace
}  // namespace qp::eval
