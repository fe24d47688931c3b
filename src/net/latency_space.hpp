// LatencySpace: the abstract pairwise-RTT oracle every algorithm consumes.
//
// Historically every algorithm took a `LatencyMatrix` — an explicit n x n
// table — which caps scenarios near n ~ 500 (memory is n^2 doubles and the
// generators metric-close in O(n^3)). The sparse regime instead represents
// latencies *implicitly* (a low-dimensional coordinate embedding, see
// net/embedding.hpp) and only ever evaluates the pairs an algorithm actually
// touches. LatencySpace is the seam: `LatencyMatrix` implements it (dense
// table lookup), `LatencyEmbedding` implements it (coordinate arithmetic),
// and every layer from placement to engine (core/, sim/, eval/) is written
// against the interface.
//
// `as_matrix()` exposes the dense table when one exists. Callers use it for
// dense-only machinery (the DeltaEvaluator's row fast path, the brute-force
// k-NN index core::local_search_placement builds over a matrix) and to
// *detect* the sparse regime (nullptr), where O(n^2) candidate enumeration
// must not run. Everything else reads the
// space through rtt / fill_rtts.
//
// Contract (matching LatencyMatrix): rtt(a, b) == rtt(b, a) >= 0,
// rtt(v, v) == 0, and repeated calls with the same arguments return the
// same double (the search relies on bitwise-reproducible evaluation).
#pragma once

#include <cstddef>
#include <vector>

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

// Whole-row queries over any space. Each gathers d(v, .) through fill_rtts
// in O(n), so a LatencyMatrix yields its stored entries; a bad site throws
// std::out_of_range.

/// rtt(v, w) for every site w.
[[nodiscard]] std::vector<double> rtt_row(const LatencySpace& space, std::size_t v);

/// Average RTT from `v` to every site, itself included (the paper averages
/// over all clients V). This is s_i in §7's heuristic.
[[nodiscard]] double average_rtt_from(const LatencySpace& space, std::size_t v);

/// The site minimizing the RTT sum to all sites (graph median, ties to the
/// lowest index); used by the singleton placement. Throws std::logic_error
/// on an empty space.
[[nodiscard]] std::size_t median_site(const LatencySpace& space);

/// The `k` sites closest to `v` (v itself first) — the ball B(v, k) of
/// §4.1.1; ties by site index. Throws std::invalid_argument when k > size.
[[nodiscard]] std::vector<std::size_t> ball(const LatencySpace& space, std::size_t v,
                                            std::size_t k);

}  // namespace qp::net
