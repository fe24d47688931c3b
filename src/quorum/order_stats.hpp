// Order statistics of the maximum over a uniformly random fixed-size subset.
//
// For Majority quorum systems a quorum is a uniform random q-subset of the
// universe, so the expected response-time term E[ max_{u in Q} x_u ] can be
// computed analytically from the sorted x values instead of enumerating the
// astronomically many quorums:
//   P( max <= x_(i) ) = C(i, q) / C(n, q)    (x sorted ascending, 1-based i)
// Binomials are evaluated in log space so n in the hundreds is exact.
//
// The pmf of the maximum does not depend on the values at all — only on
// (n, q) — so it is cached once per pair (max_order_weights) and the
// expectation becomes a dot product of the sorted values with the cached
// weight vector. The scratch-buffer overloads let hot loops (placement
// search, delta evaluation) evaluate expectations with zero steady-state
// allocations.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace qp::quorum {

/// Cached weights w[i] = P( max = sorted_values[i] ) for a uniform random
/// subset of size `subset_size` drawn from `n` values (0-based i; w[i] = 0
/// for i < subset_size - 1). Thread-safe; the returned span stays valid for
/// the lifetime of the program. Throws if subset_size is 0 or exceeds n.
[[nodiscard]] std::span<const double> max_order_weights(std::size_t n,
                                                        std::size_t subset_size);

/// Dot product of an ASCENDING-sorted value span with the cached weights:
/// E[ max over a uniform subset_size-subset ]. The caller guarantees the
/// ordering; no allocation.
[[nodiscard]] double expected_max_sorted(std::span<const double> sorted_values,
                                         std::size_t subset_size);

/// Same dot product against caller-held weights (e.g. a span cached at
/// system construction), skipping the cache lookup and its lock — the form
/// hot loops should use. weights.size() must equal sorted_values.size().
[[nodiscard]] double expected_max_sorted(std::span<const double> sorted_values,
                                         std::span<const double> weights) noexcept;

/// E[ max_{i in S} values[i] ] over uniform random subsets S of the given
/// size. Throws if subset_size is 0 or exceeds values.size().
[[nodiscard]] double expected_max_uniform_subset(std::span<const double> values,
                                                 std::size_t subset_size);

/// Allocation-free overload: copies values into `scratch` (resized as
/// needed), sorts there, and dots with the cached weights. Identical result.
[[nodiscard]] double expected_max_uniform_subset(std::span<const double> values,
                                                 std::size_t subset_size,
                                                 std::vector<double>& scratch);

}  // namespace qp::quorum
