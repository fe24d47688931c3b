#include "common/combinatorics.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace qp::common {

namespace {

/// ln C(n, k); -inf for k > n.
double log_binomial(std::size_t n, std::size_t k) noexcept {
  if (k > n) return -std::numeric_limits<double>::infinity();
  if (k == 0 || k == n) return 0.0;
  const auto dn = static_cast<double>(n);
  const auto dk = static_cast<double>(k);
  return std::lgamma(dn + 1.0) - std::lgamma(dk + 1.0) - std::lgamma(dn - dk + 1.0);
}

}  // namespace

double binomial(std::size_t n, std::size_t k) noexcept {
  if (k > n) return 0.0;
  const double value = std::exp(log_binomial(n, k));
  // lgamma is accurate to ~1e-15 relative error, so for counts that are
  // exactly representable in a double the nearest integer is the true value.
  if (value < 0x1.0p53) return std::round(value);
  return value;
}

double binomial_ratio(std::size_t a, std::size_t b, std::size_t k) noexcept {
  if (k > a) return 0.0;
  if (k > b) return std::numeric_limits<double>::infinity();
  return std::exp(log_binomial(a, k) - log_binomial(b, k));
}

const std::vector<double>& binomial_ratio_row(std::size_t n, std::size_t k) {
  // std::map nodes are stable, so returned references survive later inserts.
  static std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> cache;
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock{mutex};
  const auto key = std::make_pair(n, k);
  auto it = cache.find(key);
  if (it == cache.end()) {
    std::vector<double> row(n + 1);
    for (std::size_t i = 0; i <= n; ++i) row[i] = binomial_ratio(i, n, k);
    it = cache.emplace(key, std::move(row)).first;
  }
  return it->second;
}

}  // namespace qp::common
