#include "quorum/quorum_system.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace qp::quorum {

QuorumTable::QuorumTable(std::size_t universe_size)
    : universe_size_(universe_size), incident_offsets_(universe_size + 1, 0) {}

void QuorumTable::add(std::span<const std::size_t> quorum) {
  for (std::size_t u : quorum) {
    if (u >= universe_size_) throw std::out_of_range{"QuorumTable: element out of range"};
    members_.push_back(static_cast<std::uint32_t>(u));
  }
  offsets_.push_back(members_.size());
}

void QuorumTable::finish() {
  // Counting sort of the (element, quorum) pairs by element; quorums are
  // visited in ascending order, so every incidence list comes out sorted.
  for (std::uint32_t u : members_) ++incident_offsets_[u + 1];
  for (std::size_t u = 0; u < universe_size_; ++u) {
    incident_offsets_[u + 1] += incident_offsets_[u];
  }
  incident_.resize(members_.size());
  std::vector<std::size_t> next(incident_offsets_.begin(), incident_offsets_.end() - 1);
  for (std::size_t q = 0; q < size(); ++q) {
    for (std::uint32_t u : (*this)[q]) incident_[next[u]++] = static_cast<std::uint32_t>(q);
  }
}

struct QuorumSystem::Memo {
  std::once_flag table_once;
  std::shared_ptr<const QuorumTable> table;
  std::once_flag load_once;
  std::vector<double> load;
};

QuorumSystem::QuorumSystem() : memo_(std::make_shared<Memo>()) {}

const std::shared_ptr<const QuorumTable>& QuorumSystem::shared_quorums() const {
  if (!enumerable()) {
    throw std::domain_error{name() + ": more quorums than quorum::kEnumerationLimit"};
  }
  std::call_once(memo_->table_once, [this] {
    std::shared_ptr<QuorumTable> table{new QuorumTable{universe_size()}};
    generate_quorums(*table);
    table->finish();
    memo_->table = std::move(table);
  });
  return memo_->table;
}

std::span<const double> QuorumSystem::uniform_load_cached() const {
  std::call_once(memo_->load_once, [this] { memo_->load = uniform_load(); });
  return memo_->load;
}

double QuorumSystem::expected_max_uniform(std::span<const double> values) const {
  check_values_size(*this, values);
  const QuorumTable& table = quorums();
  double total = 0.0;
  for (std::size_t q = 0; q < table.size(); ++q) {
    double worst = 0.0;
    for (std::uint32_t u : table[q]) worst = std::max(worst, values[u]);
    total += worst;
  }
  return total / static_cast<double>(table.size());
}

Quorum QuorumSystem::best_quorum(std::span<const double> values) const {
  check_values_size(*this, values);
  const QuorumTable& table = quorums();
  std::size_t best = 0;
  double best_max = std::numeric_limits<double>::infinity();
  for (std::size_t q = 0; q < table.size(); ++q) {
    double worst = 0.0;
    for (std::uint32_t u : table[q]) worst = std::max(worst, values[u]);
    if (worst < best_max) {
      best_max = worst;
      best = q;
    }
  }
  return Quorum(table[best].begin(), table[best].end());
}

std::vector<double> QuorumSystem::uniform_load() const {
  const QuorumTable& table = quorums();
  std::vector<double> load(universe_size());
  for (std::size_t u = 0; u < load.size(); ++u) {
    load[u] = static_cast<double>(table.incident(u).size()) /
              static_cast<double>(table.size());
  }
  return load;
}

std::vector<Quorum> QuorumSystem::sample_quorums(std::size_t count, common::Rng& rng) const {
  const QuorumTable& table = quorums();
  std::vector<Quorum> result;
  result.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<const std::uint32_t> quorum = table[rng.below(table.size())];
    result.emplace_back(quorum.begin(), quorum.end());
  }
  return result;
}

void QuorumSystem::sample_quorum(common::Rng& rng, Quorum& out) const {
  out = sample_quorums(1, rng)[0];
}

double QuorumSystem::uniform_touch_probability(std::span<const std::size_t> elements) const {
  for (std::size_t u : elements) {
    if (u >= universe_size()) {
      throw std::out_of_range{"uniform_touch_probability: element out of range"};
    }
  }
  if (elements.empty()) return 0.0;
  // A quorum touches the set iff it is incident to one of its elements.
  const QuorumTable& table = quorums();
  std::vector<std::uint32_t> touching;
  for (std::size_t u : elements) {
    touching.insert(touching.end(), table.incident(u).begin(), table.incident(u).end());
  }
  std::sort(touching.begin(), touching.end());
  const auto distinct = std::unique(touching.begin(), touching.end()) - touching.begin();
  return static_cast<double>(distinct) / static_cast<double>(table.size());
}

void check_values_size(const QuorumSystem& system, std::span<const double> values) {
  if (values.size() != system.universe_size()) {
    throw std::invalid_argument{"quorum: values size != universe size for " + system.name()};
  }
}

}  // namespace qp::quorum
