#include "core/manytoone.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/response.hpp"
#include "core/strategy.hpp"
#include "flow/assignment.hpp"
#include "lp/revised_simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qp::core {

namespace {

// Placement-LP telemetry, tallied once per solve: how many LPs ran, their
// total simplex iterations, and how many started from a crash basis that
// put some element over a site's capacity.
const obs::Counter c_m2o_lp_solves = obs::counter("core.manytoone.lp_solves");
const obs::Counter c_m2o_lp_iterations = obs::counter("core.manytoone.lp_iterations");
const obs::Counter c_m2o_crash_overflows = obs::counter("core.manytoone.crash_overflows");

/// Fractional assignment x[u][w] plus bookkeeping from the LP step.
struct FractionalPlacement {
  std::vector<std::vector<double>> x;  // [element][site]
  double objective = 0.0;
};

/// Solves the placement LP for the anchor whose row d = d(v0, .) is given,
/// on the revised simplex, started from a greedy crash basis.
FractionalPlacement solve_placement_lp(const std::vector<double>& d,
                                       const quorum::QuorumTable& quorums,
                                       std::span<const double> distribution,
                                       std::span<const double> element_load,
                                       std::span<const double> capacities,
                                       lp::SolveStatus& status) {
  QP_TRACE_SPAN("core.manytoone.lp");
  const std::size_t sites = d.size();
  const std::size_t n = element_load.size();
  const std::size_t m = quorums.size();

  // Variables: x_uw (u * sites + w), then the distance D_u (distance + u),
  // then t_i (delay + i).
  lp::LpProblem problem;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t w = 0; w < sites; ++w) (void)problem.add_variable(0.0);
  }
  const std::size_t distance = n * sites;
  for (std::size_t u = 0; u < n; ++u) (void)problem.add_variable(0.0);
  const std::size_t delay = distance + n;
  for (std::size_t i = 0; i < m; ++i) (void)problem.add_variable(distribution[i]);

  // Assignment rows u: sum_w x_uw = 1. Distance rows n + u:
  // sum_w d(v0,w) x_uw - D_u = 0.
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t row = problem.add_row(lp::RowSense::Equal, 1.0);
    for (std::size_t w = 0; w < sites; ++w) problem.add_coefficient(row, u * sites + w, 1.0);
  }
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t row = problem.add_row(lp::RowSense::Equal, 0.0);
    for (std::size_t w = 0; w < sites; ++w) {
      if (d[w] > 0.0) problem.add_coefficient(row, u * sites + w, d[w]);
    }
    problem.add_coefficient(row, distance + u, -1.0);
  }
  // Delay rows: D_u - t_i <= 0 for every i and u in Q_i.
  const std::size_t first_delay = problem.row_count();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t u : quorums[i]) {
      const std::size_t row = problem.add_row(lp::RowSense::LessEqual, 0.0);
      problem.add_coefficient(row, distance + u, 1.0);
      problem.add_coefficient(row, delay + i, -1.0);
    }
  }
  // Capacity rows: sum_u load(u) x_uw <= cap(w).
  for (std::size_t w = 0; w < sites; ++w) {
    const std::size_t row = problem.add_row(lp::RowSense::LessEqual, capacities[w]);
    for (std::size_t u = 0; u < n; ++u) {
      if (element_load[u] > 0.0) {
        problem.add_coefficient(row, u * sites + w, element_load[u]);
      }
    }
  }

  // Crash basis: elements by decreasing load, each on the nearest site that
  // still has room for it (the nearest site when none has: composite phase 1
  // repairs the overflow). x_{u,site(u)} is basic in assignment row u, D_u
  // in its distance row, t_i in the delay row of Q_i's farthest element
  // (first in quorum order on a tie), a slack on every other row. The basis
  // is triangular (assignment, distance, delay, capacity rows against the x,
  // D, t, slack columns), so it always factors.
  std::vector<std::size_t> by_load(n);
  std::iota(by_load.begin(), by_load.end(), std::size_t{0});
  std::stable_sort(by_load.begin(), by_load.end(), [&](std::size_t a, std::size_t b) {
    return element_load[a] > element_load[b];
  });
  std::vector<double> room(capacities.begin(), capacities.end());
  std::vector<std::size_t> site_of(n);
  bool overflow = false;
  for (std::size_t u : by_load) {
    // Nearest site overall and nearest with room, lowest index on ties.
    std::size_t nearest = 0;
    std::size_t fits = sites;
    for (std::size_t w = 0; w < sites; ++w) {
      if (d[w] < d[nearest]) nearest = w;
      if (element_load[u] <= room[w] && (fits == sites || d[w] < d[fits])) fits = w;
    }
    overflow = overflow || fits == sites;
    site_of[u] = fits == sites ? nearest : fits;
    room[site_of[u]] -= element_load[u];
  }
  lp::SimplexOptions simplex;
  std::vector<std::size_t>& basic = simplex.initial_basis.basic;
  basic.resize(problem.row_count());
  for (std::size_t u = 0; u < n; ++u) {
    basic[u] = u * sites + site_of[u];
    basic[n + u] = distance + u;
  }
  for (std::size_t r = first_delay; r < basic.size(); ++r) basic[r] = lp::Basis::slack_of(r);
  std::size_t row = first_delay;
  for (std::size_t i = 0; i < m; ++i) {
    const std::span<const std::uint32_t> q = quorums[i];
    std::size_t farthest = 0;
    for (std::size_t k = 1; k < q.size(); ++k) {
      if (d[site_of[q[k]]] > d[site_of[q[farthest]]]) farthest = k;
    }
    basic[row + farthest] = delay + i;
    row += q.size();
  }

  lp::SolveResult solution = lp::RevisedSimplexSolver{std::move(simplex)}.solve(problem);
  c_m2o_lp_solves.add();
  c_m2o_lp_iterations.add(solution.iterations);
  if (overflow) c_m2o_crash_overflows.add();
  status = solution.status;

  FractionalPlacement fractional;
  if (status != lp::SolveStatus::Optimal) return fractional;
  fractional.objective = solution.objective;
  fractional.x.assign(n, std::vector<double>(sites, 0.0));
  for (std::size_t u = 0; u < n; ++u) {
    double sum = 0.0;
    for (std::size_t w = 0; w < sites; ++w) {
      const double value = std::max(0.0, solution.values[u * sites + w]);
      fractional.x[u][w] = value;
      sum += value;
    }
    for (std::size_t w = 0; w < sites; ++w) fractional.x[u][w] /= sum;
  }
  return fractional;
}

/// Lin–Vitter filtering: zero out assignments farther than (1+eps) times the
/// element's fractional average distance, then renormalize each row.
void filter_fractional(FractionalPlacement& fractional, const std::vector<double>& d,
                       double epsilon) {
  for (std::vector<double>& row : fractional.x) {
    double average = 0.0;
    for (std::size_t w = 0; w < row.size(); ++w) average += row[w] * d[w];
    const double threshold = (1.0 + epsilon) * average + 1e-12;
    double kept = 0.0;
    for (std::size_t w = 0; w < row.size(); ++w) {
      if (d[w] > threshold) {
        row[w] = 0.0;
      } else {
        kept += row[w];
      }
    }
    // Markov: mass within (1+eps)*average is at least eps/(1+eps) > 0.
    if (kept <= 0.0) throw std::logic_error{"filter_fractional: all mass filtered"};
    for (double& value : row) value /= kept;
  }
}

/// Shmoys–Tardos rounding: split every site into ceil(fractional mass) unit
/// slots, spread each site's items over its slots in decreasing-size order,
/// and solve the resulting min-cost bipartite assignment exactly.
Placement round_to_slots(const FractionalPlacement& fractional,
                         std::span<const double> element_load, const std::vector<double>& d) {
  const std::size_t n = fractional.x.size();
  const std::size_t sites = n == 0 ? 0 : fractional.x[0].size();

  std::vector<std::size_t> slot_site;  // Slot index -> hosting site.
  std::vector<flow::AssignmentEdge> edges;

  for (std::size_t w = 0; w < sites; ++w) {
    // Items with positive fraction on w, by decreasing load.
    std::vector<std::size_t> items;
    double mass = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      if (fractional.x[u][w] > 1e-12) {
        items.push_back(u);
        mass += fractional.x[u][w];
      }
    }
    if (items.empty()) continue;
    std::stable_sort(items.begin(), items.end(), [&](std::size_t a, std::size_t b) {
      return element_load[a] > element_load[b];
    });
    const auto slot_count = static_cast<std::size_t>(std::ceil(mass - 1e-9));
    const std::size_t first_slot = slot_site.size();
    for (std::size_t s = 0; s < std::max<std::size_t>(slot_count, 1); ++s) {
      slot_site.push_back(w);
    }
    // Walk cumulative mass; item u (fraction y) overlaps slots
    // [floor(before), floor(before + y)] in the cumulative ordering.
    double before = 0.0;
    for (std::size_t u : items) {
      const double y = fractional.x[u][w];
      const auto lo = static_cast<std::size_t>(before + 1e-12);
      double after = before + y;
      auto hi = static_cast<std::size_t>(after - 1e-12);
      hi = std::min(hi, slot_site.size() - first_slot - 1);
      for (std::size_t s = lo; s <= hi; ++s) {
        edges.push_back(flow::AssignmentEdge{u, first_slot + s, element_load[u] * d[w]});
      }
      before = after;
    }
  }

  const std::vector<std::size_t> slot_capacity(slot_site.size(), 1);
  const auto assignment = flow::min_cost_assignment(n, slot_capacity, edges);
  if (!assignment) {
    // The fractional solution is itself a feasible fractional matching of
    // this bipartite instance, so an integral one must exist.
    throw std::logic_error{"round_to_slots: no perfect matching (internal error)"};
  }
  Placement placement;
  placement.site_of.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    placement.site_of[u] = slot_site[assignment->slot_of[u]];
  }
  return placement;
}

/// Argument checks shared by both entry points; returns the system's quorum
/// table, which the distribution is aligned with.
const quorum::QuorumTable& validated_quorums(const net::LatencySpace& space,
                                             const quorum::QuorumSystem& system,
                                             std::span<const double> quorum_distribution,
                                             std::span<const double> capacities) {
  if (capacities.size() != space.size()) {
    throw std::invalid_argument{"many_to_one_placement: capacities size mismatch"};
  }
  for (double cap : capacities) {
    if (!std::isfinite(cap)) {
      throw std::invalid_argument{"many_to_one_placement: capacities must be finite"};
    }
  }
  const quorum::QuorumTable& quorums = system.quorums();
  if (quorum_distribution.size() != quorums.size()) {
    throw std::invalid_argument{"many_to_one_placement: distribution size mismatch"};
  }
  const double total =
      std::accumulate(quorum_distribution.begin(), quorum_distribution.end(), 0.0);
  if (std::abs(total - 1.0) > 1e-6) {
    throw std::invalid_argument{"many_to_one_placement: distribution must sum to 1"};
  }
  return quorums;
}

/// The three-step pipeline for one anchor. The anchor's row d(v0, .) is
/// gathered once and shared by all three steps.
ManyToOneResult place_for_anchor(const net::LatencySpace& space,
                                 const quorum::QuorumTable& quorums,
                                 std::span<const double> quorum_distribution,
                                 std::span<const double> load,
                                 std::span<const double> capacities, std::size_t v0,
                                 const ManyToOneOptions& options) {
  if (v0 >= space.size()) {
    throw std::invalid_argument{"many_to_one_placement: v0 out of range"};
  }
  const std::vector<double> d = net::rtt_row(space, v0);
  ManyToOneResult result;
  FractionalPlacement fractional =
      solve_placement_lp(d, quorums, quorum_distribution, load, capacities, result.status);
  if (result.status != lp::SolveStatus::Optimal) return result;
  result.lp_delay_bound = fractional.objective;

  filter_fractional(fractional, d, options.epsilon);
  result.placement = round_to_slots(fractional, load, d);

  // Quantify the bounded capacity violation.
  std::vector<double> site_load(space.size(), 0.0);
  for (std::size_t u = 0; u < load.size(); ++u) {
    site_load[result.placement.site_of[u]] += load[u];
  }
  for (std::size_t w = 0; w < space.size(); ++w) {
    if (site_load[w] <= 0.0) continue;
    const double cap = std::max(capacities[w], 1e-12);
    result.max_capacity_violation = std::max(result.max_capacity_violation, site_load[w] / cap);
  }
  return result;
}

}  // namespace

ManyToOneResult many_to_one_placement(const net::LatencySpace& space,
                                      const quorum::QuorumSystem& system,
                                      std::span<const double> quorum_distribution,
                                      std::span<const double> capacities, std::size_t v0,
                                      const ManyToOneOptions& options) {
  const quorum::QuorumTable& quorums =
      validated_quorums(space, system, quorum_distribution, capacities);
  const std::vector<double> load = element_loads(quorums, quorum_distribution);
  return place_for_anchor(space, quorums, quorum_distribution, load, capacities, v0, options);
}

ManyToOneSearchResult best_many_to_one_placement(const net::LatencySpace& space,
                                                 const quorum::QuorumSystem& system,
                                                 std::span<const double> quorum_distribution,
                                                 std::span<const double> capacities,
                                                 std::span<const std::size_t> candidates,
                                                 const ManyToOneOptions& options) {
  std::vector<std::size_t> all;
  if (candidates.empty()) {
    all.resize(space.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    candidates = all;
  }
  const quorum::QuorumTable& quorums =
      validated_quorums(space, system, quorum_distribution, capacities);
  const std::vector<double> load = element_loads(quorums, quorum_distribution);
  const ExplicitStrategy common =
      common_strategy(system.shared_quorums(), quorum_distribution, space.size());

  ManyToOneSearchResult best;
  best.avg_network_delay = std::numeric_limits<double>::infinity();
  for (std::size_t v0 : candidates) {
    ManyToOneResult candidate = place_for_anchor(space, quorums, quorum_distribution, load,
                                                 capacities, v0, options);
    if (candidate.status != lp::SolveStatus::Optimal) continue;
    const double delay =
        evaluate_explicit(space, system, candidate.placement, 0.0, common)
            .avg_network_delay_ms;
    if (delay < best.avg_network_delay) {
      best.avg_network_delay = delay;
      best.anchor_client = v0;
      best.best = std::move(candidate);
    }
  }
  if (!std::isfinite(best.avg_network_delay)) {
    best.best.status = lp::SolveStatus::Infeasible;
  }
  return best;
}

}  // namespace qp::core
