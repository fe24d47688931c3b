#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace qp::common {

std::uint64_t Rng::below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument{"Rng::below: bound must be positive"};
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t draw = next();
    if (draw >= threshold) return draw % bound;
  }
}

double Rng::normal() noexcept {
  // Box–Muller; guard against log(0).
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) throw std::invalid_argument{"Rng::exponential: mean must be > 0"};
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  if (k > n) throw std::invalid_argument{"sample_without_replacement: k > n"};
  // Partial Fisher–Yates over an index vector.
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(below(n - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

}  // namespace qp::common
