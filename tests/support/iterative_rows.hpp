// Row filter for the §4.2 iterative sweep's output: the rows of one stage
// ("one-to-one", "iter<r>-phase<p>").
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "eval/figures.hpp"

namespace qp::eval::test_support {

[[nodiscard]] inline std::vector<IterativePoint> rows_for_stage(
    std::span<const IterativePoint> points, std::string_view stage) {
  std::vector<IterativePoint> result;
  for (const IterativePoint& p : points) {
    if (p.stage == stage) result.push_back(p);
  }
  return result;
}

}  // namespace qp::eval::test_support
