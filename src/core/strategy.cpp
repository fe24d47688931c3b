#include "core/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/eval_workspace.hpp"
#include "lp/revised_simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qp::core {

namespace {

// Strategy-LP engine telemetry: solves, total simplex iterations, and
// whether a supplied warm basis carried the solve or stalled into the cold
// retry. solver_revised counts the solves handed to the revised simplex
// (every one that passes input validation); perfbench reads it.
const obs::Counter c_slp_solves = obs::counter("lp.strategy.solves");
const obs::Counter c_slp_revised = obs::counter("lp.strategy.solver_revised");
const obs::Counter c_slp_iterations = obs::counter("lp.strategy.iterations");
const obs::Counter c_slp_warm_hit = obs::counter("lp.strategy.warm_start_hit");
const obs::Counter c_slp_warm_miss =
    obs::counter("lp.strategy.warm_start_miss");

}  // namespace

void ExplicitStrategy::validate(std::size_t client_count, std::size_t universe_size,
                                double tolerance) const {
  if (probability.size() != client_count) {
    throw std::invalid_argument{"ExplicitStrategy: wrong client count"};
  }
  if (quorums == nullptr) throw std::invalid_argument{"ExplicitStrategy: no quorum table"};
  for (std::size_t i = 0; i < quorums->size(); ++i) {
    if ((*quorums)[i].empty()) throw std::invalid_argument{"ExplicitStrategy: empty quorum"};
    for (std::size_t u : (*quorums)[i]) {
      if (u >= universe_size) throw std::out_of_range{"ExplicitStrategy: element out of range"};
    }
  }
  for (const std::vector<double>& row : probability) {
    if (row.size() != quorums->size()) {
      throw std::invalid_argument{"ExplicitStrategy: row size != quorum count"};
    }
    double sum = 0.0;
    for (double p : row) {
      // NaN fails every comparison, so it needs its own test.
      if (!std::isfinite(p)) {
        throw std::invalid_argument{"ExplicitStrategy: non-finite probability"};
      }
      if (p < -tolerance || p > 1.0 + tolerance) {
        throw std::invalid_argument{"ExplicitStrategy: probability out of [0,1]"};
      }
      sum += p;
    }
    if (std::abs(sum - 1.0) > tolerance) {
      throw std::invalid_argument{"ExplicitStrategy: row does not sum to 1"};
    }
  }
}

std::vector<double> ExplicitStrategy::average_distribution() const {
  std::vector<double> average(quorums->size(), 0.0);
  if (probability.empty()) return average;
  for (const std::vector<double>& row : probability) {
    for (std::size_t i = 0; i < average.size(); ++i) average[i] += row[i];
  }
  for (double& p : average) p /= static_cast<double>(probability.size());
  return average;
}

ExplicitStrategy common_strategy(std::shared_ptr<const quorum::QuorumTable> quorums,
                                 std::span<const double> distribution,
                                 std::size_t client_count) {
  ExplicitStrategy strategy;
  strategy.quorums = std::move(quorums);
  strategy.probability.assign(client_count,
                              std::vector<double>(distribution.begin(), distribution.end()));
  return strategy;
}

std::vector<quorum::Quorum> closest_quorums(const net::LatencySpace& space,
                                            const quorum::QuorumSystem& system,
                                            const Placement& placement) {
  placement.validate(space.size());
  std::vector<quorum::Quorum> result;
  result.reserve(space.size());
  std::vector<double> distances;
  for (std::size_t v = 0; v < space.size(); ++v) {
    fill_element_distances(space, placement, v, distances);
    result.push_back(system.best_quorum(distances));
  }
  return result;
}

std::vector<double> element_loads(const quorum::QuorumTable& quorums,
                                  std::span<const double> distribution) {
  if (quorums.size() != distribution.size()) {
    throw std::invalid_argument{"element_loads: size mismatch"};
  }
  std::vector<double> loads(quorums.universe_size(), 0.0);
  for (std::size_t i = 0; i < quorums.size(); ++i) {
    for (std::size_t u : quorums[i]) loads[u] += distribution[i];
  }
  return loads;
}

namespace {

/// Adds the per-element loads onto their hosting sites.
std::vector<double> elements_to_sites(std::span<const double> element_loads,
                                      const Placement& placement, std::size_t site_count) {
  placement.validate(site_count);
  if (element_loads.size() != placement.universe_size()) {
    throw std::invalid_argument{"elements_to_sites: size mismatch"};
  }
  std::vector<double> site_loads(site_count, 0.0);
  for (std::size_t u = 0; u < element_loads.size(); ++u) {
    site_loads[placement.site_of[u]] += element_loads[u];
  }
  return site_loads;
}

/// Adds a single quorum access (weight p) onto site loads under the chosen
/// execution model; `quorum` is a Quorum or a QuorumTable row.
template <typename Members>
void charge_quorum(const Members& quorum, const Placement& placement, double p,
                   ExecutionModel model, std::vector<double>& site_loads,
                   std::vector<std::size_t>& touched_scratch) {
  if (model == ExecutionModel::PerElement) {
    for (std::size_t u : quorum) site_loads[placement.site_of[u]] += p;
    return;
  }
  touched_scratch.clear();
  for (std::size_t u : quorum) touched_scratch.push_back(placement.site_of[u]);
  std::sort(touched_scratch.begin(), touched_scratch.end());
  touched_scratch.erase(std::unique(touched_scratch.begin(), touched_scratch.end()),
                        touched_scratch.end());
  for (std::size_t w : touched_scratch) site_loads[w] += p;
}

}  // namespace

std::vector<double> site_loads_closest(const net::LatencySpace& space,
                                       const quorum::QuorumSystem& system,
                                       const Placement& placement,
                                       std::span<const double> client_weights,
                                       ExecutionModel model) {
  return site_loads_chosen(closest_quorums(space, system, placement), placement,
                           space.size(), client_weights, model);
}

std::vector<double> site_loads_chosen(std::span<const quorum::Quorum> chosen,
                                      const Placement& placement, std::size_t site_count,
                                      std::span<const double> client_weights,
                                      ExecutionModel model) {
  if (!client_weights.empty() && client_weights.size() != chosen.size()) {
    throw std::invalid_argument{"site_loads_chosen: client weight count != clients"};
  }
  std::vector<double> site_loads(site_count, 0.0);
  std::vector<std::size_t> scratch;
  const double uniform = 1.0 / static_cast<double>(chosen.size());
  for (std::size_t v = 0; v < chosen.size(); ++v) {
    const double weight = client_weights.empty() ? uniform : client_weights[v];
    charge_quorum(chosen[v], placement, weight, model, site_loads, scratch);
  }
  return site_loads;
}

std::vector<double> site_loads_balanced(const quorum::QuorumSystem& system,
                                        const Placement& placement, std::size_t site_count,
                                        ExecutionModel model) {
  if (model == ExecutionModel::PerElement) {
    return elements_to_sites(system.uniform_load(), placement, site_count);
  }
  // Collapsed: load(w) = P(uniform quorum touches any element hosted on w).
  placement.validate(site_count);
  std::vector<std::vector<std::size_t>> hosted(site_count);
  for (std::size_t u = 0; u < placement.universe_size(); ++u) {
    hosted[placement.site_of[u]].push_back(u);
  }
  std::vector<double> site_loads(site_count, 0.0);
  for (std::size_t w = 0; w < site_count; ++w) {
    if (!hosted[w].empty()) {
      site_loads[w] = system.uniform_touch_probability(hosted[w]);
    }
  }
  return site_loads;
}

std::vector<double> site_loads_explicit(const ExplicitStrategy& strategy,
                                        const Placement& placement, std::size_t site_count,
                                        std::span<const double> client_weights,
                                        ExecutionModel model) {
  if (!client_weights.empty() && client_weights.size() != strategy.probability.size()) {
    throw std::invalid_argument{"site_loads_explicit: client weight count != clients"};
  }
  placement.validate(site_count);
  std::vector<double> site_loads(site_count, 0.0);
  std::vector<std::size_t> scratch;
  for (std::size_t v = 0; v < strategy.probability.size(); ++v) {
    const std::vector<double>& row = strategy.probability[v];
    if (row.size() != strategy.quorums->size()) {
      throw std::invalid_argument{"site_loads_explicit: row size mismatch"};
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] == 0.0) continue;
      const double p = client_weights.empty() ? row[i] : client_weights[v] * row[i];
      charge_quorum((*strategy.quorums)[i], placement, p, model, site_loads, scratch);
    }
  }
  // Uniform clients: accumulate, then divide once by |V| (the historical
  // arithmetic, kept bitwise).
  if (client_weights.empty() && !strategy.probability.empty()) {
    for (double& load : site_loads) {
      load /= static_cast<double>(strategy.probability.size());
    }
  }
  return site_loads;
}

namespace {

/// Copies LP variable values into per-client rows and normalizes each row to
/// sum exactly 1 (the solver is only accurate to its tolerance).
void fill_strategy_rows(StrategyLpResult& result, std::span<const double> values,
                        std::size_t client_count, std::size_t m) {
  result.strategy.probability.assign(client_count, std::vector<double>(m, 0.0));
  for (std::size_t v = 0; v < client_count; ++v) {
    double sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double p = std::max(0.0, values[v * m + i]);
      result.strategy.probability[v][i] = p;
      sum += p;
    }
    if (sum <= 0.0) throw std::logic_error{"optimize_access_strategy: empty distribution"};
    for (double& p : result.strategy.probability[v]) p /= sum;
  }
}

}  // namespace

StrategyLpResult optimize_access_strategy(const net::LatencySpace& space,
                                          const quorum::QuorumSystem& system,
                                          const Placement& placement,
                                          std::span<const double> capacities,
                                          std::span<const double> client_weights,
                                          const StrategyLpOptions& options) {
  QP_TRACE_SPAN("lp.strategy.optimize");
  c_slp_solves.add();
  placement.validate(space.size());
  if (capacities.size() != space.size()) {
    throw std::invalid_argument{"optimize_access_strategy: capacities size mismatch"};
  }
  // Checked here so the error names this API rather than an LP row bound.
  // Negative caps stay valid input: the LP reports them Infeasible.
  for (double cap : capacities) {
    if (!std::isfinite(cap)) {
      throw std::invalid_argument{"optimize_access_strategy: capacities must be finite"};
    }
  }
  if (!client_weights.empty()) {
    if (client_weights.size() != space.size()) {
      throw std::invalid_argument{
          "optimize_access_strategy: client weight count != clients"};
    }
    for (double weight : client_weights) {
      // A negative weight would reward delay and grant negative capacity
      // consumption; reject like the rest of the demand-weighting stack.
      if (!std::isfinite(weight) || weight < 0.0) {
        throw std::invalid_argument{
            "optimize_access_strategy: client weights must be finite and >= 0"};
      }
    }
  }
  const std::size_t client_count = space.size();
  const quorum::QuorumTable& quorums = system.quorums();
  const std::size_t m = quorums.size();
  const double inv_clients = 1.0 / static_cast<double>(client_count);

  // Per-quorum site multiplicities: how many elements of Q_i live on site w.
  // (For one-to-one placements these are 0/1.)
  std::vector<std::vector<std::pair<std::size_t, double>>> quorum_sites(m);
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<std::size_t> sites;
    sites.reserve(quorums[i].size());
    for (std::size_t u : quorums[i]) sites.push_back(placement.site_of[u]);
    std::sort(sites.begin(), sites.end());
    for (std::size_t a = 0; a < sites.size();) {
      std::size_t b = a;
      while (b < sites.size() && sites[b] == sites[a]) ++b;
      quorum_sites[i].emplace_back(sites[a], static_cast<double>(b - a));
      a = b;
    }
  }

  // The aggregated form: p_v(Q_i) at v * m + i, priced w_v * delta_f(v, Q_i)
  // with w_v = demand share (the flat 1/|V| when unweighted), then one usage
  // variable z_i = sum_v w_v p_v(Q_i) per quorum at usage + i. A client
  // column has two nonzeros (its distribution row and Q_i's usage row); only
  // the z columns reach the capacity rows. closest[v] is v's minimum-delay
  // quorum (lowest index on ties), the crash start.
  lp::LpProblem problem;
  std::vector<std::size_t> closest(client_count, 0);
  std::vector<double> distances;
  for (std::size_t v = 0; v < client_count; ++v) {
    fill_element_distances(space, placement, v, distances);
    const double weight = client_weights.empty() ? inv_clients : client_weights[v];
    double closest_delta = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      double delta = 0.0;
      for (std::size_t u : quorums[i]) delta = std::max(delta, distances[u]);
      (void)problem.add_variable(delta * weight);
      if (i == 0 || delta < closest_delta) {
        closest_delta = delta;
        closest[v] = i;
      }
    }
  }
  const std::size_t usage = client_count * m;
  for (std::size_t i = 0; i < m; ++i) (void)problem.add_variable(0.0);

  // Capacity rows (4.4), one per support site: sum_i count(Q_i, w) z_i <= cap_w.
  std::vector<std::size_t> capacity_row(space.size(), 0);
  for (std::size_t w : placement.support_set()) {
    capacity_row[w] = problem.add_row(lp::RowSense::LessEqual, capacities[w]);
  }
  // Distribution rows (4.5), then the usage rows sum_v w_v p_v(Q_i) - z_i = 0.
  const std::size_t first_distribution = problem.row_count();
  for (std::size_t v = 0; v < client_count; ++v) {
    (void)problem.add_row(lp::RowSense::Equal, 1.0);
  }
  const std::size_t first_usage = problem.row_count();
  for (std::size_t i = 0; i < m; ++i) (void)problem.add_row(lp::RowSense::Equal, 0.0);

  for (std::size_t v = 0; v < client_count; ++v) {
    const double weight = client_weights.empty() ? inv_clients : client_weights[v];
    for (std::size_t i = 0; i < m; ++i) {
      problem.add_coefficient(first_distribution + v, v * m + i, 1.0);
      problem.add_coefficient(first_usage + i, v * m + i, weight);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    problem.add_coefficient(first_usage + i, usage + i, -1.0);
    for (const auto& [site, count] : quorum_sites[i]) {
      problem.add_coefficient(capacity_row[site], usage + i, count);
    }
  }

  // Crash start unless the caller seeds the solve: every client on its
  // closest quorum, z_i on its usage row, slack on every capacity row. The
  // basis is triangular (distribution, usage, capacity rows against the p,
  // z, slack columns), so it always factors; composite phase 1 repairs the
  // capacity rows the closest choices overload. When no cap can bind, the
  // crash is already optimal (all reduced costs are w_v (delta(v, Q) -
  // delta(v, closest)) >= 0) and the solve stops at its first pricing pass.
  const bool warm = !options.simplex.initial_basis.empty();
  lp::SimplexOptions simplex = options.simplex;
  if (!warm) {
    std::vector<std::size_t>& basic = simplex.initial_basis.basic;
    basic.resize(problem.row_count());
    for (std::size_t r = 0; r < first_distribution; ++r) basic[r] = lp::Basis::slack_of(r);
    for (std::size_t v = 0; v < client_count; ++v) {
      basic[first_distribution + v] = v * m + closest[v];
    }
    for (std::size_t i = 0; i < m; ++i) basic[first_usage + i] = usage + i;
  }

  StrategyLpResult result;
  const lp::RevisedSimplexSolver solver{std::move(simplex)};
  lp::SolveResult solution = solver.solve(problem);
  c_slp_revised.add();
  c_slp_iterations.add(solution.iterations);
  if (warm) {
    (solution.warm_start_stalled ? c_slp_warm_miss : c_slp_warm_hit).add();
  }
  result.status = solution.status;
  result.lp_iterations = solution.iterations;
  if (solution.status != lp::SolveStatus::Optimal) return result;
  result.avg_network_delay = solution.objective;
  result.basis = std::move(solution.basis);
  result.strategy.quorums = system.shared_quorums();
  fill_strategy_rows(result, solution.values, client_count, m);
  return result;
}

}  // namespace qp::core
