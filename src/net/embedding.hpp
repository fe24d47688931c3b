// Low-dimensional latency embedding — the implicit LatencySpace that breaks
// the O(n^2) matrix wall.
//
// Sites get a point x_i in R^d plus a non-negative "height" h_i, and the
// modeled RTT is
//
//     rtt(i, j) = max(min_rtt, ||x_i - x_j||_2 + h_i + h_j)      (i != j)
//
// — the Vivaldi height-vector model: the Euclidean part captures wide-area
// propagation (which is very nearly a low-dimensional metric for
// geographically clustered sites), and the heights capture per-site access
// delay, which is additive per endpoint and NOT Euclidean. The model is a
// metric by construction (the Euclidean part obeys the triangle inequality,
// heights only add endpoint terms, and max(., c) preserves it), so placement
// algorithms that implicitly assume a distance function stay sound. Memory
// is O(n * d) instead of O(n^2): 50k sites in 3-8 dims fit in ~2 MB where a
// dense matrix would need 20 GB.
//
// Two ways to obtain one:
//  * `fit_latency_embedding` fits coordinates to a seeded subset of the
//    pairs of a *measured* dense matrix (landmark-anchored spring
//    relaxation, serial and bit-deterministic in the seed), reporting
//    embedding-error stats over a seeded sample of pairs.
//  * `sim/scenario.hpp` *generates* large synthetic topologies directly in
//    embedding space (3-d Earth-chord coordinates + access-delay heights),
//    where the embedding is exact ground truth — no dense stage at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/latency_matrix.hpp"
#include "net/latency_space.hpp"

namespace qp::net {

class LatencyEmbedding final : public LatencySpace {
 public:
  /// `coordinates` is row-major n x dimensions; `heights` has one
  /// non-negative entry per site. Throws std::invalid_argument on shape
  /// mismatch, non-finite values, or negative heights / min_rtt.
  LatencyEmbedding(std::size_t dimensions, std::vector<double> coordinates,
                   std::vector<double> heights, double min_rtt_ms = 0.0);

  [[nodiscard]] std::size_t size() const noexcept override { return heights_.size(); }
  [[nodiscard]] double rtt(std::size_t a, std::size_t b) const override;
  void fill_rtts(std::size_t from, const std::size_t* sites, std::size_t count,
                 double* out) const override;

  [[nodiscard]] std::size_t dimensions() const noexcept { return dims_; }
  [[nodiscard]] std::span<const double> coordinate(std::size_t site) const;
  [[nodiscard]] double height(std::size_t site) const;
  [[nodiscard]] double min_rtt_ms() const noexcept { return min_rtt_; }

 private:
  void check_site(std::size_t v) const;

  std::size_t dims_ = 0;
  std::vector<double> coords_;   // n x dims_, row-major.
  std::vector<double> heights_;  // n.
  double min_rtt_ = 0.0;
};

/// The fit anchors every site on 16 farthest-point landmarks plus 24
/// sampled peers, starts the relaxation at step 0.25 (decaying linearly to
/// ~5% over the sweeps), and reports error stats over 2000 sampled pairs.
struct EmbeddingConfig {
  std::size_t dimensions = 5;
  /// Relaxation sweeps over all (site, reference) springs.
  std::size_t iterations = 64;
  std::uint64_t seed = 20070601;
};

/// Embedding-error statistics over a seeded sample of measured pairs:
/// relative error |est - measured| / measured, plus the worst absolute gap.
struct EmbeddingStats {
  std::size_t sample_pairs = 0;
  double mean_rel_error = 0.0;
  double median_rel_error = 0.0;
  double p95_rel_error = 0.0;
  double max_abs_error_ms = 0.0;
};

struct FittedEmbedding {
  LatencyEmbedding embedding;
  EmbeddingStats stats;
};

/// Fits a height-model embedding to a seeded subset of `measured`'s pairs:
/// farthest-point landmarks, seeded peer sampling, then serial spring
/// relaxation (each (site, reference) spring nudges the site's coordinate
/// and height toward matching the measured RTT). Deterministic bit-for-bit
/// in `config` — the fit is single-threaded by design, so results cannot
/// depend on QP_THREADS. Throws on an empty matrix or dimensions == 0.
// qp-lint: allow(test-only-export) -- the library's measured-matrix entry point; no pipeline stage fits yet
[[nodiscard]] FittedEmbedding fit_latency_embedding(const LatencyMatrix& measured,
                                                    const EmbeddingConfig& config = {});

}  // namespace qp::net
