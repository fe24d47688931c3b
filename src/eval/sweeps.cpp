#include "eval/sweeps.hpp"

namespace qp::eval {

std::vector<IterativePoint> rows_for_stage(std::span<const IterativePoint> points,
                                           const std::string& stage) {
  std::vector<IterativePoint> result;
  for (const IterativePoint& p : points) {
    if (p.stage == stage) result.push_back(p);
  }
  return result;
}

}  // namespace qp::eval
