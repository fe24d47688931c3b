// Golden-output digests: the eval sweeps behind the paper's figures, plus
// the two latency generators under them, at their bench configurations.
// Each case prints its rows through eval::print_csv on a std::hexfloat
// stream and compares them with tests/golden/<name>.csv, so a change meant
// to keep the numbers (a setting turned into a constant, a loop reordered)
// has to reproduce every row bit for bit.
//
// A row is compared as an exact string first; where that fails (another
// compiler or libm), field by field, with numeric fields allowed a 1e-12
// relative gap. A failing case names the row and writes its actual output
// to golden_actual/<name>.csv under the test's working directory; copy that
// file over tests/golden/<name>.csv once a change in output is intended.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "eval/figures.hpp"
#include "eval/sim_validation.hpp"
#include "eval/sweeps.hpp"
#include "net/embedding.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/scenario.hpp"

#ifndef QP_GOLDEN_DIR
#error "QP_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace qp::eval {
namespace {

constexpr double kRelativeBand = 1e-12;

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

bool parse_number(const std::string& field, double& value) {
  if (field.empty()) return false;
  char* end = nullptr;
  value = std::strtod(field.c_str(), &end);
  return end == field.c_str() + field.size();
}

bool fields_agree(const std::string& golden, const std::string& actual) {
  if (golden == actual) return true;
  double g = 0.0;
  double a = 0.0;
  if (!parse_number(golden, g) || !parse_number(actual, a)) return false;
  return std::abs(g - a) <= kRelativeBand * std::max(std::abs(g), std::abs(a));
}

bool rows_agree(const std::string& golden, const std::string& actual) {
  if (golden == actual) return true;
  const std::vector<std::string> g = split(golden, ',');
  const std::vector<std::string> a = split(actual, ',');
  if (g.size() != a.size()) return false;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (!fields_agree(g[i], a[i])) return false;
  }
  return true;
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
    if (!rows_agree(golden_rows[i], actual_rows[i])) {
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

}  // namespace
}  // namespace qp::eval
