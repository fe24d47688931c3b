// The §4.1.2 placement LP for one anchor in its textbook per-(i, u) form,
// built independently of core/manytoone: the oracle model that the
// production LP (one distance row per element, a projection of the same
// feasible set) is checked against, on the dense tableau for its bound and
// on a cold revised solve for its pivot count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/strategy.hpp"
#include "lp/problem.hpp"
#include "net/latency_matrix.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core::test_support {

/// Variables x_uw (u * sites + w), then t_i; assignment rows
/// sum_w x_uw = 1, one delay row sum_w d(v0,w) x_uw - t_i <= 0 per i and
/// u in Q_i, and capacity rows sum_u load(u) x_uw <= cap(w). Its optimum
/// is the anchor's lp_delay_bound.
[[nodiscard]] inline lp::LpProblem placement_lp(const net::LatencyMatrix& matrix,
                                                const quorum::QuorumSystem& system,
                                                std::span<const double> probs,
                                                std::span<const double> caps,
                                                std::size_t v0) {
  const quorum::QuorumTable& quorums = system.quorums();
  const std::vector<double> load = element_loads(quorums, probs);
  const std::size_t sites = matrix.size();
  const std::size_t n = system.universe_size();
  const std::vector<double>& d = matrix.row(v0);
  lp::LpProblem problem;
  for (std::size_t var = 0; var < n * sites; ++var) (void)problem.add_variable(0.0);
  std::vector<std::size_t> t_var;
  for (double p : probs) t_var.push_back(problem.add_variable(p));
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t row = problem.add_row(lp::RowSense::Equal, 1.0);
    for (std::size_t w = 0; w < sites; ++w) problem.add_coefficient(row, u * sites + w, 1.0);
  }
  for (std::size_t i = 0; i < quorums.size(); ++i) {
    for (std::size_t u : quorums[i]) {
      const std::size_t row = problem.add_row(lp::RowSense::LessEqual, 0.0);
      for (std::size_t w = 0; w < sites; ++w) {
        if (d[w] > 0.0) problem.add_coefficient(row, u * sites + w, d[w]);
      }
      problem.add_coefficient(row, t_var[i], -1.0);
    }
  }
  for (std::size_t w = 0; w < sites; ++w) {
    const std::size_t row = problem.add_row(lp::RowSense::LessEqual, caps[w]);
    for (std::size_t u = 0; u < n; ++u) {
      if (load[u] > 0.0) problem.add_coefficient(row, u * sites + w, load[u]);
    }
  }
  return problem;
}

}  // namespace qp::core::test_support
