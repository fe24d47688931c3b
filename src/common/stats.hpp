// Small statistics helpers shared by the simulator, evaluator, and tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace qp::common {

/// Streaming mean/spread/extrema accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Square root of the unbiased sample variance; 0 for fewer than two
  /// samples.
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merges another accumulator (parallel Welford combination).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Linear-interpolation percentile, p in [0,100]. Throws on empty input.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// Same interpolation over already-sorted (ascending) data — callers that
/// need several percentiles of one sample sort once and read the ranks.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted, double p);

}  // namespace qp::common
