// Combinatorial helpers: binomial coefficients in log space (so that order
// statistics over C(161, 80)-sized spaces do not overflow) and subset
// enumeration for the brute-force oracles used in tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qp::common {

/// C(n, k) as a double (may be inf for huge arguments; callers use ratios).
[[nodiscard]] double binomial(std::size_t n, std::size_t k) noexcept;

/// C(a,k)/C(b,k) as a difference of lgamma-based logs, so it stays finite
/// where the binomials themselves overflow.
[[nodiscard]] double binomial_ratio(std::size_t a, std::size_t b, std::size_t k) noexcept;

/// Memoized row of binomial ratios: row[i] = binomial_ratio(i, n, k) for
/// i = 0..n (so row.size() == n + 1). Entry i is the order-statistic CDF
/// P(max of a uniform k-subset falls within the i smallest values), which the
/// placement-evaluation hot path consumes per (n, k) instead of recomputing
/// lgamma-based ratios per call. Thread-safe; the returned reference stays
/// valid for the lifetime of the program (entries are never evicted).
[[nodiscard]] const std::vector<double>& binomial_ratio_row(std::size_t n, std::size_t k);

}  // namespace qp::common
