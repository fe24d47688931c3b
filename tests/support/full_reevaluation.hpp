// Test and benchmark seam for the full re-evaluation search route.
//
// local_search_placement routes an objective by capability: through the
// incremental DeltaEvaluator when Objective::supports_delta() is true, else
// through one full Objective::evaluate per candidate. FullReevaluation wraps
// any objective, forwards every query to it, and reports no delta support,
// so a search over the wrapper runs the real fallback route on the wrapped
// objective's arithmetic — the naive reference that the delta route is
// checked (and benchmarked) against. Header-only, so benchmark programs
// can use it without the test libraries.
#pragma once

#include <span>
#include <string>

#include "core/objective.hpp"

namespace qp::core::test_support {

class FullReevaluation final : public Objective {
 public:
  /// `inner` must outlive the adapter.
  explicit FullReevaluation(const Objective& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] double alpha() const noexcept override { return inner_->alpha(); }
  [[nodiscard]] AccessStrategy access_strategy() const noexcept override {
    return inner_->access_strategy();
  }
  [[nodiscard]] bool supports_delta() const noexcept override { return false; }
  [[nodiscard]] std::span<const double> element_loads(
      const quorum::QuorumSystem& system) const override {
    return inner_->element_loads(system);
  }
  [[nodiscard]] double evaluate_ws(const net::LatencySpace& space,
                                   const quorum::QuorumSystem& system,
                                   const Placement& placement,
                                   EvalWorkspace& workspace) const override {
    return inner_->evaluate_ws(space, system, placement, workspace);
  }

 private:
  const Objective* inner_;
};

}  // namespace qp::core::test_support
