// Legal DeltaEvaluator targets on a one-to-one placement. The evaluator
// scores and applies only the moves the one-to-one local search makes: an
// element to its own site (a no-op) or to a site no element uses
// (core/delta_eval.hpp). Parity suites draw their candidates with these.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/rng.hpp"
#include "core/placement.hpp"

namespace qp::core::test_support {

/// True when an element other than `element` sits on `site`.
[[nodiscard]] inline bool hosts_other(const Placement& placement, std::size_t element,
                                      std::size_t site) {
  for (std::size_t u = 0; u < placement.universe_size(); ++u) {
    if (u != element && placement.site_of[u] == site) return true;
  }
  return false;
}

/// The first site no element uses, scanning cyclically from a uniform draw
/// in [0, site_count). The placement must leave at least one site unused.
[[nodiscard]] inline std::size_t random_unused_site(const Placement& placement,
                                                    std::size_t site_count, common::Rng& rng) {
  const auto used = [&](std::size_t site) {
    return std::find(placement.site_of.begin(), placement.site_of.end(), site) !=
           placement.site_of.end();
  };
  std::size_t site = static_cast<std::size_t>(rng.below(site_count));
  while (used(site)) site = (site + 1) % site_count;
  return site;
}

}  // namespace qp::core::test_support
