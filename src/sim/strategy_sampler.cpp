#include "sim/strategy_sampler.hpp"

#include <algorithm>
#include <stdexcept>

namespace qp::sim {

QuorumSampler QuorumSampler::closest(const net::LatencySpace& space,
                                     const quorum::QuorumSystem& system,
                                     const core::Placement& placement) {
  QuorumSampler sampler{Kind::Closest};
  sampler.chosen_ = core::closest_quorums(space, system, placement);
  return sampler;
}

QuorumSampler QuorumSampler::balanced(const quorum::QuorumSystem& system) {
  QuorumSampler sampler{Kind::Balanced};
  sampler.system_ = &system;
  return sampler;
}

QuorumSampler QuorumSampler::explicit_strategy(const core::ExplicitStrategy& strategy,
                                               std::size_t client_count,
                                               const quorum::QuorumSystem& system) {
  strategy.validate(client_count, system.universe_size());
  QuorumSampler sampler{Kind::Explicit};
  sampler.table_ = strategy.quorums;
  sampler.cdf_.reserve(strategy.probability.size());
  for (const std::vector<double>& row : strategy.probability) {
    std::vector<double> cdf(row.size());
    double sum = 0.0;
    std::size_t last_nonzero = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      sum += row[i];
      cdf[i] = sum;
      if (row[i] > 0.0) last_nonzero = i;
    }
    // Close the row exactly so a u ~ [0,1) draw always lands — from the
    // last nonzero entry onward, so fp rounding in the partial sums can
    // never make a zero-probability quorum sampleable.
    for (std::size_t i = last_nonzero; i < cdf.size(); ++i) cdf[i] = 1.0;
    sampler.cdf_.push_back(std::move(cdf));
  }
  return sampler;
}

const quorum::Quorum& QuorumSampler::draw(std::size_t client, common::Rng& rng,
                                          quorum::Quorum& scratch) const {
  switch (kind_) {
    case Kind::Closest:
      return chosen_[client];
    case Kind::Balanced:
      system_->sample_quorum(rng, scratch);
      return scratch;
    case Kind::Explicit: {
      const std::vector<double>& cdf = cdf_[client];
      const double u = rng.uniform();
      const std::size_t index = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const std::span<const std::uint32_t> quorum =
          (*table_)[std::min(index, table_->size() - 1)];
      scratch.assign(quorum.begin(), quorum.end());
      return scratch;
    }
  }
  throw std::logic_error{"QuorumSampler: unknown kind"};
}

}  // namespace qp::sim
