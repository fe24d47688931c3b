#include "net/latency_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qp::net {

namespace {

/// Floyd–Warshall over a square, zero-diagonal matrix (the constructor has
/// checked both): shortest paths through the complete graph whose edge
/// weights are the entries.
/// Row k is skipped in its own pass (d[k][k] == 0 makes it a no-op), so
/// row_i never aliases row_k, and std::min keeps the old entry on a tie:
/// the inner loop is branch-free and vectorizes.
std::vector<std::vector<double>> floyd_warshall(std::vector<std::vector<double>> dist) {
  const std::size_t n = dist.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double* row_k = dist[k].data();
    for (std::size_t i = 0; i < n; ++i) {
      if (i == k) continue;
      double* row_i = dist[i].data();
      const double dik = row_i[k];
      for (std::size_t j = 0; j < n; ++j) row_i[j] = std::min(row_i[j], dik + row_k[j]);
    }
  }
  return dist;
}

}  // namespace

LatencyMatrix::LatencyMatrix(std::vector<std::vector<double>> rtt_ms,
                             std::vector<std::string> site_names,
                             double symmetry_tolerance)
    : rtt_(std::move(rtt_ms)), names_(std::move(site_names)) {
  const std::size_t n = rtt_.size();
  if (!names_.empty() && names_.size() != n) {
    throw std::invalid_argument{"LatencyMatrix: name count != site count"};
  }
  if (names_.empty()) {
    names_.resize(n);
    for (std::size_t i = 0; i < n; ++i) names_[i] = "site-" + std::to_string(i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (rtt_[i].size() != n) throw std::invalid_argument{"LatencyMatrix: non-square"};
    if (rtt_[i][i] != 0.0) throw std::invalid_argument{"LatencyMatrix: nonzero diagonal"};
    for (std::size_t j = 0; j < n; ++j) {
      if (!(rtt_[i][j] >= 0.0) || !std::isfinite(rtt_[i][j])) {
        throw std::invalid_argument{"LatencyMatrix: entries must be finite and >= 0"};
      }
    }
  }
  // Symmetrize: measured RTTs differ slightly by direction; average them.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double gap = std::abs(rtt_[i][j] - rtt_[j][i]);
      const double scale = std::max({1.0, rtt_[i][j], rtt_[j][i]});
      if (gap > symmetry_tolerance * scale) {
        throw std::invalid_argument{"LatencyMatrix: matrix is not symmetric"};
      }
      const double avg = 0.5 * (rtt_[i][j] + rtt_[j][i]);
      rtt_[i][j] = rtt_[j][i] = avg;
    }
  }
}

void LatencyMatrix::check_site(std::size_t v) const {
  if (v >= rtt_.size()) throw std::out_of_range{"LatencyMatrix: site out of range"};
}

double LatencyMatrix::rtt(std::size_t a, std::size_t b) const {
  check_site(a);
  check_site(b);
  return rtt_[a][b];
}

void LatencyMatrix::fill_rtts(std::size_t from, const std::size_t* sites,
                              std::size_t count, double* out) const {
  check_site(from);
  const double* row = rtt_[from].data();
  for (std::size_t i = 0; i < count; ++i) out[i] = row[sites[i]];
}

const std::vector<double>& LatencyMatrix::row(std::size_t a) const {
  check_site(a);
  return rtt_[a];
}

const std::string& LatencyMatrix::site_name(std::size_t v) const {
  check_site(v);
  return names_[v];
}

LatencyMatrix LatencyMatrix::metric_closure() const {
  return LatencyMatrix{floyd_warshall(rtt_), names_};
}

}  // namespace qp::net
