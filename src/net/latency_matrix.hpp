// LatencyMatrix: the symmetric round-trip-time matrix (in milliseconds) that
// stands in for the paper's measured Planetlab-50 / daxlist-161 datasets.
//
// It is the dense net::LatencySpace: measured WAN data arrives as a distance
// matrix.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "net/latency_space.hpp"

namespace qp::net {

class LatencyMatrix : public LatencySpace {
 public:
  /// Builds from a full matrix. Requires: square, zero diagonal, symmetric to
  /// within `symmetry_tolerance` (asymmetry is averaged away), non-negative.
  explicit LatencyMatrix(std::vector<std::vector<double>> rtt_ms,
                         std::vector<std::string> site_names = {},
                         double symmetry_tolerance = 1e-6);

  [[nodiscard]] std::size_t size() const noexcept override { return rtt_.size(); }

  /// RTT between sites in milliseconds; rtt(v, v) == 0.
  [[nodiscard]] double rtt(std::size_t a, std::size_t b) const override;

  /// out[i] = rtt(from, sites[i]), read straight from the row.
  void fill_rtts(std::size_t from, const std::size_t* sites, std::size_t count,
                 double* out) const override;

  [[nodiscard]] const LatencyMatrix* as_matrix() const noexcept override { return this; }

  [[nodiscard]] const std::vector<double>& row(std::size_t a) const;

  [[nodiscard]] const std::string& site_name(std::size_t v) const;

  /// Returns a metric-closed copy (shortest paths through the complete graph
  /// whose edge weights are the matrix entries). Idempotent on metrics.
  [[nodiscard]] LatencyMatrix metric_closure() const;

 private:
  void check_site(std::size_t v) const;

  std::vector<std::vector<double>> rtt_;
  std::vector<std::string> names_;
};

}  // namespace qp::net
