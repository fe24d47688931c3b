// Test-side views of a latency space: the n^2 materializer of an embedding
// (the dense oracle of the embedding parity tests), the metric check, and
// the writer half of net/matrix_io's round trip. All are free functions over
// the public net:: API.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "net/embedding.hpp"
#include "net/latency_matrix.hpp"

namespace qp::net::test_support {

/// The dense n x n matrix of `embedding` (entries == rtt() bitwise). O(n^2)
/// memory.
[[nodiscard]] inline LatencyMatrix densify(const LatencyEmbedding& embedding,
                                           std::vector<std::string> site_names = {}) {
  const std::size_t n = embedding.size();
  std::vector<std::vector<double>> table(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      table[i][j] = table[j][i] = embedding.rtt(i, j);
    }
  }
  return LatencyMatrix{std::move(table), std::move(site_names)};
}

/// True iff d(a,c) <= d(a,b) + d(b,c) + tolerance for all triples.
[[nodiscard]] inline bool satisfies_triangle_inequality(const LatencyMatrix& matrix,
                                                        double tolerance = 1e-9) {
  const std::size_t n = matrix.size();
  for (std::size_t a = 0; a < n; ++a) {
    const std::vector<double>& from_a = matrix.row(a);
    for (std::size_t b = 0; b < n; ++b) {
      const std::vector<double>& from_b = matrix.row(b);
      for (std::size_t c = 0; c < n; ++c) {
        if (from_a[c] > from_a[b] + from_b[c] + tolerance) return false;
      }
    }
  }
  return true;
}

/// Writes the matrix (with names) in net/matrix_io's text format, with
/// enough digits that read_matrix restores every double.
inline void write_matrix(std::ostream& out, const LatencyMatrix& matrix) {
  const std::size_t n = matrix.size();
  out << n << '\n';
  for (std::size_t i = 0; i < n; ++i) {
    out << matrix.site_name(i) << (i + 1 == n ? '\n' : ' ');
  }
  out.precision(17);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out << matrix.rtt(i, j) << (j + 1 == n ? '\n' : ' ');
    }
  }
}

}  // namespace qp::net::test_support
