// LatencySpace: the abstract pairwise-RTT oracle the placement layers consume.
//
// Historically every algorithm took a `LatencyMatrix` — an explicit n x n
// table — which caps scenarios near n ~ 500 (memory is n^2 doubles and the
// generators metric-close in O(n^3)). The sparse regime instead represents
// latencies *implicitly* (a low-dimensional coordinate embedding, see
// net/embedding.hpp) and only ever evaluates the O(n * k) pairs the search
// actually touches. LatencySpace is the seam: `LatencyMatrix` implements it
// (dense table lookup), `LatencyEmbedding` implements it (coordinate
// arithmetic), and the whole evaluation layer — `core::Objective`, the
// evaluate_* entry points of core/response.hpp, `core::DeltaEvaluator` and
// `core::local_search_placement` — is written against the interface.
//
// `as_matrix()` exposes the dense table when one exists. Callers use it for
// dense-only machinery (the DeltaEvaluator's row fast path, the brute-force
// k-NN index built over a matrix) and to *detect* the sparse regime
// (nullptr), where O(n^2) candidate enumeration must not run. Evaluation
// never needs it: every objective reads the space through rtt / fill_rtts.
//
// Contract (matching LatencyMatrix): rtt(a, b) == rtt(b, a) >= 0,
// rtt(v, v) == 0, and repeated calls with the same arguments return the
// same double (the search relies on bitwise-reproducible evaluation).
#pragma once

#include <cstddef>

namespace qp::net {

class LatencyMatrix;

class LatencySpace {
 public:
  virtual ~LatencySpace() = default;

  /// Number of sites.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// RTT between sites in milliseconds; rtt(v, v) == 0. Implementations
  /// bounds-check and throw std::out_of_range on invalid indices.
  [[nodiscard]] virtual double rtt(std::size_t a, std::size_t b) const = 0;

  /// out[i] = rtt(from, sites[i]) for i in [0, count) — the gather shape of
  /// the evaluator rebuild paths. The default loops over rtt(); dense
  /// implementations override with the SIMD gather kernel.
  virtual void fill_rtts(std::size_t from, const std::size_t* sites, std::size_t count,
                         double* out) const {
    for (std::size_t i = 0; i < count; ++i) out[i] = rtt(from, sites[i]);
  }

  /// The dense table behind this space, or nullptr for implicit (sparse)
  /// representations. See the file comment for how callers use this.
  [[nodiscard]] virtual const LatencyMatrix* as_matrix() const noexcept { return nullptr; }

 protected:
  LatencySpace() = default;
  LatencySpace(const LatencySpace&) = default;
  LatencySpace& operator=(const LatencySpace&) = default;
};

}  // namespace qp::net
