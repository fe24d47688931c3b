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

#include "eval/figures.hpp"
#include "eval/sim_validation.hpp"
#include "eval/sweeps.hpp"
#include "net/embedding.hpp"
#include "net/synthetic.hpp"
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
