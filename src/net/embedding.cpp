#include "net/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"

namespace qp::net {

namespace {

/// Farthest-point landmarks every site is fit against; they anchor the
/// global geometry.
constexpr std::size_t kLandmarks = 16;
/// Additional sampled measured peers per site (local refinement).
constexpr std::size_t kPeersPerSite = 24;
/// Initial relaxation step; decays linearly to ~5% over the sweeps.
constexpr double kInitialStep = 0.25;
/// Seeded sample size for the error stats.
constexpr std::size_t kSamplePairs = 2000;

double euclidean(const double* a, const double* b, std::size_t dims) noexcept {
  double sq = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double diff = a[d] - b[d];
    sq += diff * diff;
  }
  return std::sqrt(sq);
}

}  // namespace

LatencyEmbedding::LatencyEmbedding(std::size_t dimensions, std::vector<double> coordinates,
                                   std::vector<double> heights, double min_rtt_ms)
    : dims_(dimensions),
      coords_(std::move(coordinates)),
      heights_(std::move(heights)),
      min_rtt_(min_rtt_ms) {
  if (dims_ == 0) throw std::invalid_argument{"LatencyEmbedding: dimensions == 0"};
  if (coords_.size() != heights_.size() * dims_) {
    throw std::invalid_argument{"LatencyEmbedding: coordinate/height shape mismatch"};
  }
  if (!(min_rtt_ >= 0.0) || !std::isfinite(min_rtt_)) {
    throw std::invalid_argument{"LatencyEmbedding: min_rtt must be finite and >= 0"};
  }
  for (double c : coords_) {
    if (!std::isfinite(c)) {
      throw std::invalid_argument{"LatencyEmbedding: coordinates must be finite"};
    }
  }
  for (double h : heights_) {
    if (!(h >= 0.0) || !std::isfinite(h)) {
      throw std::invalid_argument{"LatencyEmbedding: heights must be finite and >= 0"};
    }
  }
}

void LatencyEmbedding::check_site(std::size_t v) const {
  if (v >= heights_.size()) {
    throw std::out_of_range{"LatencyEmbedding: site out of range"};
  }
}

double LatencyEmbedding::rtt(std::size_t a, std::size_t b) const {
  check_site(a);
  check_site(b);
  if (a == b) return 0.0;
  // Heights grouped first: (h_a + h_b) is commutative, so rtt(a, b) and
  // rtt(b, a) are the same double — left-to-right (dist + h_a) + h_b is not.
  const double raw = euclidean(coords_.data() + a * dims_, coords_.data() + b * dims_,
                               dims_) +
                     (heights_[a] + heights_[b]);
  return raw > min_rtt_ ? raw : min_rtt_;
}

void LatencyEmbedding::fill_rtts(std::size_t from, const std::size_t* sites,
                                 std::size_t count, double* out) const {
  check_site(from);
  const double* base = coords_.data() + from * dims_;
  const double h_from = heights_[from];
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t s = sites[i];
    check_site(s);
    if (s == from) {
      out[i] = 0.0;
      continue;
    }
    const double raw = euclidean(base, coords_.data() + s * dims_, dims_) +
                       (h_from + heights_[s]);
    out[i] = raw > min_rtt_ ? raw : min_rtt_;
  }
}

std::span<const double> LatencyEmbedding::coordinate(std::size_t site) const {
  check_site(site);
  return {coords_.data() + site * dims_, dims_};
}

double LatencyEmbedding::height(std::size_t site) const {
  check_site(site);
  return heights_[site];
}

namespace {

/// Farthest-point traversal from site 0: greedy maxmin landmark set.
std::vector<std::size_t> pick_landmarks(const LatencyMatrix& measured, std::size_t count) {
  const std::size_t n = measured.size();
  count = std::min(count, n);
  std::vector<std::size_t> landmarks;
  landmarks.reserve(count);
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  std::size_t next = 0;
  for (std::size_t round = 0; round < count; ++round) {
    landmarks.push_back(next);
    const auto& row = measured.row(next);
    std::size_t farthest = 0;
    double best = -1.0;
    for (std::size_t v = 0; v < n; ++v) {
      nearest[v] = std::min(nearest[v], row[v]);
      if (nearest[v] > best) {
        best = nearest[v];
        farthest = v;
      }
    }
    next = farthest;
  }
  std::sort(landmarks.begin(), landmarks.end());
  return landmarks;
}

}  // namespace

FittedEmbedding fit_latency_embedding(const LatencyMatrix& measured,
                                      const EmbeddingConfig& config) {
  const std::size_t n = measured.size();
  const std::size_t dims = config.dimensions;
  if (n == 0) throw std::invalid_argument{"fit_latency_embedding: empty matrix"};
  if (dims == 0) throw std::invalid_argument{"fit_latency_embedding: dimensions == 0"};

  common::Rng rng{config.seed};
  common::Rng init_rng = rng.fork(0x1);
  common::Rng peer_rng = rng.fork(0x2);
  common::Rng stats_rng = rng.fork(0x3);

  // The seeded subset of measured pairs each site is fit against: the global
  // landmark anchors plus kPeersPerSite sampled peers for local detail.
  const std::vector<std::size_t> landmarks = pick_landmarks(measured, kLandmarks);
  std::vector<std::vector<std::size_t>> refs(n);
  for (std::size_t v = 0; v < n; ++v) {
    auto& r = refs[v];
    r = landmarks;
    if (n > 1) {
      const std::size_t extra = std::min(kPeersPerSite, n - 1);
      for (std::size_t s : peer_rng.sample_without_replacement(n, extra)) r.push_back(s);
    }
    std::sort(r.begin(), r.end());
    r.erase(std::unique(r.begin(), r.end()), r.end());
    std::erase(r, v);
  }

  // Init: small isotropic scatter scaled to the typical measured RTT, so the
  // relaxation starts from a symmetric, seed-determined state; heights start
  // near zero and grow as springs demand.
  double rtt_scale = 0.0;
  for (std::size_t l : landmarks) rtt_scale += average_rtt_from(measured, l);
  rtt_scale = landmarks.empty() ? 1.0 : std::max(1.0, rtt_scale / landmarks.size());
  std::vector<double> coords(n * dims);
  std::vector<double> heights(n, 0.05 * rtt_scale);
  for (double& c : coords) c = init_rng.normal(0.0, 0.2 * rtt_scale);

  // Serial spring relaxation: each sweep visits sites in index order and
  // nudges the site's point (and height) toward matching every reference
  // spring. Only the visited endpoint moves, so the result is independent of
  // everything but the seed and sweep count.
  const std::size_t sweeps = std::max<std::size_t>(1, config.iterations);
  for (std::size_t t = 0; t < sweeps; ++t) {
    const double progress = static_cast<double>(t) / static_cast<double>(sweeps);
    const double step = kInitialStep * (1.0 - 0.95 * progress);
    for (std::size_t v = 0; v < n; ++v) {
      double* xv = coords.data() + v * dims;
      const auto& row = measured.row(v);
      for (std::size_t u : refs[v]) {
        const double* xu = coords.data() + u * dims;
        const double dist = euclidean(xv, xu, dims);
        const double est = dist + heights[v] + heights[u];
        const double err = row[u] - est;  // > 0: too close, push apart.
        if (dist > 1e-9) {
          const double scale = step * err / dist;
          for (std::size_t d = 0; d < dims; ++d) xv[d] += scale * (xv[d] - xu[d]);
        } else {
          // Coincident points: deterministic axis kick sized to the error.
          xv[(v + u) % dims] += step * err;
        }
        heights[v] = std::max(0.0, heights[v] + 0.25 * step * err);
      }
    }
  }

  LatencyEmbedding embedding{dims, std::move(coords), std::move(heights), 0.0};

  // Error stats over a seeded sample of all measured pairs (relative error
  // per pair; zero-RTT pairs contribute absolute error only).
  EmbeddingStats stats;
  std::vector<double> rel;
  if (n > 1) {
    rel.reserve(kSamplePairs);
    for (std::size_t k = 0; k < kSamplePairs; ++k) {
      const std::size_t a = stats_rng.below(n);
      const std::size_t b = stats_rng.below(n);
      if (a == b) continue;
      const double truth = measured.rtt(a, b);
      const double abs_err = std::abs(embedding.rtt(a, b) - truth);
      stats.max_abs_error_ms = std::max(stats.max_abs_error_ms, abs_err);
      if (truth > 0.0) rel.push_back(abs_err / truth);
    }
  }
  stats.sample_pairs = rel.size();
  if (!rel.empty()) {
    std::sort(rel.begin(), rel.end());
    double sum = 0.0;
    for (double r : rel) sum += r;
    stats.mean_rel_error = sum / static_cast<double>(rel.size());
    stats.median_rel_error = rel[rel.size() / 2];
    stats.p95_rel_error = rel[std::min(rel.size() - 1, (rel.size() * 95) / 100)];
  }
  return FittedEmbedding{std::move(embedding), stats};
}

}  // namespace qp::net
