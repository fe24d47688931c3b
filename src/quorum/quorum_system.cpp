#include "quorum/quorum_system.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace qp::quorum {

std::span<const double> QuorumSystem::uniform_load_cached() const {
  // Keyed by (name(), universe_size()): built-in names carry the defining
  // parameters (e.g. "Majority(5/9)", "Grid(3x3)"), but custom systems may
  // reuse a name across different universe sizes — keying on the size too
  // keeps those from colliding (a collision would hand one system the
  // other's load table). Entries live for the program lifetime, making the
  // spans safe to cache in evaluators that outlive this system instance.
  static std::mutex mutex;
  static std::map<std::pair<std::string, std::size_t>, std::vector<double>>& cache =
      *new std::map<std::pair<std::string, std::size_t>, std::vector<double>>;
  std::pair<std::string, std::size_t> key{name(), universe_size()};
  {
    const std::scoped_lock lock{mutex};
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  // Compute outside the lock: enumeration-backed loads (Tree, FPP) can be
  // slow and must not serialize unrelated systems.
  std::vector<double> load = uniform_load();
  const std::scoped_lock lock{mutex};
  return cache.emplace(std::move(key), std::move(load)).first->second;
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
  const std::vector<Quorum> quorums = enumerate_quorums();
  std::vector<bool> marked(universe_size(), false);
  for (std::size_t u : elements) marked[u] = true;
  std::size_t touching = 0;
  for (const Quorum& quorum : quorums) {
    for (std::size_t u : quorum) {
      if (marked[u]) {
        ++touching;
        break;
      }
    }
  }
  return static_cast<double>(touching) / static_cast<double>(quorums.size());
}

void check_values_size(const QuorumSystem& system, std::span<const double> values) {
  if (values.size() != system.universe_size()) {
    throw std::invalid_argument{"quorum: values size != universe size for " + system.name()};
  }
}

}  // namespace qp::quorum
