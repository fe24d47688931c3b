#include "quorum/majority.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/combinatorics.hpp"
#include "quorum/order_stats.hpp"

namespace qp::quorum {

MajorityQuorum::MajorityQuorum(std::size_t universe_size, std::size_t quorum_size)
    : n_(universe_size), q_(quorum_size) {
  if (q_ == 0 || q_ > n_) throw std::invalid_argument{"MajorityQuorum: bad quorum size"};
  if (2 * q_ <= n_) {
    throw std::invalid_argument{"MajorityQuorum: 2q must exceed n for intersection"};
  }
  weights_ = max_order_weights(n_, q_);
}

std::string MajorityQuorum::name() const {
  return "Majority(" + std::to_string(q_) + "/" + std::to_string(n_) + ")";
}

double MajorityQuorum::quorum_count() const noexcept { return common::binomial(n_, q_); }

void MajorityQuorum::generate_quorums(QuorumTable& table) const {
  Quorum current(q_);
  std::iota(current.begin(), current.end(), std::size_t{0});
  for (;;) {
    table.add(current);
    // Advance to the next q-subset: bump the last entry that can move.
    std::size_t i = q_;
    while (i > 0 && current[i - 1] == n_ - q_ + i - 1) --i;
    if (i == 0) return;
    ++current[i - 1];
    for (std::size_t j = i; j < q_; ++j) current[j] = current[j - 1] + 1;
  }
}

Quorum MajorityQuorum::best_quorum(std::span<const double> values) const {
  check_values_size(*this, values);
  // The max over a q-subset is minimized by the q smallest values.
  std::vector<std::size_t> order(n_);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  });
  Quorum quorum(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(q_));
  std::sort(quorum.begin(), quorum.end());
  return quorum;
}

double MajorityQuorum::expected_max_uniform(std::span<const double> values) const {
  check_values_size(*this, values);
  return expected_max_uniform_subset(values, q_);
}

double MajorityQuorum::expected_max_uniform_scratch(std::span<const double> values,
                                                    std::vector<double>& scratch) const {
  check_values_size(*this, values);
  scratch.assign(values.begin(), values.end());
  std::sort(scratch.begin(), scratch.end());
  return expected_max_sorted(scratch, weights_);
}

std::span<const double> MajorityQuorum::order_stat_weights() const { return weights_; }

std::vector<double> MajorityQuorum::uniform_load() const {
  // Each element is in a C(n-1, q-1) / C(n, q) = q/n fraction of quorums.
  return std::vector<double>(n_, static_cast<double>(q_) / static_cast<double>(n_));
}

double MajorityQuorum::optimal_load() const noexcept {
  // Naor–Wool: the optimal load of a threshold system is q/n, achieved by
  // the uniform strategy.
  return static_cast<double>(q_) / static_cast<double>(n_);
}

std::vector<Quorum> MajorityQuorum::sample_quorums(std::size_t count,
                                                   common::Rng& rng) const {
  std::vector<Quorum> result;
  result.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Quorum quorum = rng.sample_without_replacement(n_, q_);
    std::sort(quorum.begin(), quorum.end());
    result.push_back(std::move(quorum));
  }
  return result;
}

void MajorityQuorum::sample_quorum(common::Rng& rng, Quorum& out) const {
  // Partial Fisher–Yates in out's own storage — the same index draws as
  // Rng::sample_without_replacement (equality-tested), without its
  // per-call allocation.
  out.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = i;
  for (std::size_t i = 0; i < q_; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(n_ - i));
    std::swap(out[i], out[j]);
  }
  out.resize(q_);
  std::sort(out.begin(), out.end());
}

double MajorityQuorum::uniform_touch_probability(
    std::span<const std::size_t> elements) const {
  for (std::size_t u : elements) {
    if (u >= n_) throw std::out_of_range{"uniform_touch_probability: element out of range"};
  }
  if (elements.empty()) return 0.0;
  if (elements.size() + q_ > n_) return 1.0;  // Too few remaining elements to avoid S.
  return 1.0 - common::binomial_ratio(n_ - elements.size(), n_, q_);
}

std::string family_name(MajorityFamily family) {
  switch (family) {
    case MajorityFamily::SimpleMajority: return "(t+1,2t+1) Maj";
    case MajorityFamily::ByzantineMajority: return "(2t+1,3t+1) Maj";
    case MajorityFamily::QuThreshold: return "(4t+1,5t+1) Maj";
  }
  return "unknown";
}

std::size_t family_universe(MajorityFamily family, std::size_t t) {
  switch (family) {
    case MajorityFamily::SimpleMajority: return 2 * t + 1;
    case MajorityFamily::ByzantineMajority: return 3 * t + 1;
    case MajorityFamily::QuThreshold: return 5 * t + 1;
  }
  throw std::invalid_argument{"family_universe: unknown family"};
}

MajorityQuorum make_majority(MajorityFamily family, std::size_t t) {
  if (t == 0) throw std::invalid_argument{"make_majority: t must be >= 1"};
  switch (family) {
    case MajorityFamily::SimpleMajority: return MajorityQuorum{2 * t + 1, t + 1};
    case MajorityFamily::ByzantineMajority: return MajorityQuorum{3 * t + 1, 2 * t + 1};
    case MajorityFamily::QuThreshold: return MajorityQuorum{5 * t + 1, 4 * t + 1};
  }
  throw std::invalid_argument{"make_majority: unknown family"};
}

}  // namespace qp::quorum
