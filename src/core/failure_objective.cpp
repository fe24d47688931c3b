#include "core/failure_objective.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/eval_workspace.hpp"
#include "quorum/majority.hpp"

namespace qp::core {

namespace {

/// Per-failure-state best-live-quorum evaluator with per-client tables
/// built once per evaluation:
///   * Majority-shaped systems (any q of n form a quorum): the best live
///     quorum is the q cheapest live elements — an O(n) scan of the
///     client's ascending-x order;
///   * enumerable systems: quorums sorted by fully-live max-x per client;
///     the first fully-live quorum in that order is the best live one
///     (its response is its precomputed max, since all members are live).
class StateEvaluator {
 public:
  StateEvaluator(const net::LatencySpace& space, const Placement& placement,
                 const quorum::QuorumSystem& system, double alpha,
                 std::span<const double> load)
      : n_(system.universe_size()) {
    if (const auto* majority = dynamic_cast<const quorum::MajorityQuorum*>(&system)) {
      majority_q_ = majority->quorum_size();
    } else if (system.enumerable()) {
      quorums_ = &system.quorums();
    } else {
      throw std::invalid_argument{
          "FailureAwareObjective: quorum system must be Majority-shaped or "
          "enumerable within quorum::kEnumerationLimit quorums"};
    }
    const std::size_t clients = space.size();
    x_.resize(clients);
    if (majority_q_ > 0) {
      order_.resize(clients);
    } else {
      quorum_max_.resize(clients);
      quorum_order_.resize(clients);
    }
    for (std::size_t v = 0; v < clients; ++v) {
      std::vector<double>& x = x_[v];
      fill_element_values(space, placement, load, alpha, v, x);
      if (majority_q_ > 0) {
        std::vector<std::size_t>& order = order_[v];
        order.resize(n_);
        for (std::size_t u = 0; u < n_; ++u) order[u] = u;
        std::sort(order.begin(), order.end(), [&x](std::size_t a, std::size_t b) {
          return x[a] != x[b] ? x[a] < x[b] : a < b;
        });
      } else {
        std::vector<double>& maxima = quorum_max_[v];
        maxima.resize(quorums_->size());
        for (std::size_t l = 0; l < quorums_->size(); ++l) {
          double max_x = 0.0;
          for (std::size_t u : (*quorums_)[l]) max_x = std::max(max_x, x[u]);
          maxima[l] = max_x;
        }
        std::vector<std::size_t>& order = quorum_order_[v];
        order.resize(quorums_->size());
        for (std::size_t l = 0; l < quorums_->size(); ++l) order[l] = l;
        std::sort(order.begin(), order.end(), [&maxima](std::size_t a, std::size_t b) {
          return maxima[a] != maxima[b] ? maxima[a] < maxima[b] : a < b;
        });
      }
    }
  }

  [[nodiscard]] std::size_t universe_size() const noexcept { return n_; }
  [[nodiscard]] std::size_t majority_quorum_size() const noexcept { return majority_q_; }
  /// Client v's x values, ascending element order (Majority tables only).
  [[nodiscard]] const std::vector<std::size_t>& element_order(std::size_t v) const {
    return order_[v];
  }
  [[nodiscard]] const std::vector<double>& x(std::size_t v) const { return x_[v]; }

  /// Best-live-quorum response of client v under the element up/down state
  /// `live`; sets `available` false (and returns 0) when no quorum is live.
  [[nodiscard]] double response(std::size_t v, std::span<const char> live,
                                bool& available) const {
    if (majority_q_ > 0) {
      std::size_t found = 0;
      for (std::size_t u : order_[v]) {
        if (live[u] == 0) continue;
        if (++found == majority_q_) {
          available = true;
          return x_[v][u];
        }
      }
      available = false;
      return 0.0;
    }
    for (std::size_t l : quorum_order_[v]) {
      bool all_live = true;
      for (std::size_t u : (*quorums_)[l]) {
        if (live[u] == 0) {
          all_live = false;
          break;
        }
      }
      if (all_live) {
        available = true;
        return quorum_max_[v][l];
      }
    }
    available = false;
    return 0.0;
  }

 private:
  std::size_t n_;
  std::size_t majority_q_ = 0;              // > 0 selects the Majority path.
  const quorum::QuorumTable* quorums_ = nullptr;  // Enumerated path.
  std::vector<std::vector<double>> x_;      // Per client, per element.
  std::vector<std::vector<std::size_t>> order_;        // Elements by ascending x.
  std::vector<std::vector<double>> quorum_max_;        // Per client, per quorum.
  std::vector<std::vector<std::size_t>> quorum_order_; // Quorums by ascending max.
};

/// Monte-Carlo over failure sets. A fresh rng per call and a fixed draw
/// schedule (regions first, then every site of the space) give common
/// random numbers: two placements evaluated with the same model and seed
/// see the same sequence of failure sets.
void run_monte_carlo(const FailureModel& model, const FailureAwareOptions& options,
                     std::size_t site_count, const Placement& placement,
                     const StateEvaluator& eval, std::vector<double>& response_mass,
                     std::vector<double>& avail) {
  common::Rng rng{options.seed};
  const std::size_t n = eval.universe_size();
  const std::size_t clients = response_mass.size();
  std::size_t region_count = 0;
  if (model.regional()) {
    for (std::size_t w = 0; w < site_count; ++w) {
      region_count = std::max(region_count, model.site_region[w] + 1);
    }
  }
  std::vector<char> region_down(region_count, 0);
  std::vector<char> site_down(site_count, 0);
  std::vector<char> live(n, 0);
  const double inv = 1.0 / static_cast<double>(options.mc_samples);
  for (std::size_t sample = 0; sample < options.mc_samples; ++sample) {
    for (std::size_t r = 0; r < region_count; ++r) {
      region_down[r] = static_cast<char>(rng.uniform() < model.region_failure_prob);
    }
    for (std::size_t w = 0; w < site_count; ++w) {
      bool down = rng.uniform() < model.site_failure_prob;
      if (!down && region_count > 0) down = region_down[model.site_region[w]] != 0;
      site_down[w] = static_cast<char>(down);
    }
    for (std::size_t u = 0; u < n; ++u) {
      live[u] = static_cast<char>(site_down[placement.site_of[u]] == 0);
    }
    for (std::size_t v = 0; v < clients; ++v) {
      bool available = false;
      const double response = eval.response(v, live, available);
      if (available) {
        response_mass[v] += inv * response;
        avail[v] += inv;
      }
    }
  }
}

}  // namespace

void FailureModel::validate() const {
  if (!(site_failure_prob >= 0.0) || !(site_failure_prob < 1.0) ||
      !(region_failure_prob >= 0.0) || !(region_failure_prob < 1.0)) {
    throw std::invalid_argument{
        "FailureModel: failure probabilities must lie in [0, 1)"};
  }
}

FailureAwareObjective::FailureAwareObjective(double alpha, FailureModel model,
                                             FailureAwareOptions options)
    : FailureAwareObjective(alpha, std::move(model), std::span<const double>{}, options) {}

FailureAwareObjective::FailureAwareObjective(double alpha, FailureModel model,
                                             std::span<const double> client_demand,
                                             FailureAwareOptions options)
    : Objective(client_demand), alpha_(alpha), model_(std::move(model)),
      options_(options) {
  if (!(alpha >= 0.0) || !std::isfinite(alpha)) {
    throw std::invalid_argument{"FailureAwareObjective: alpha must be finite and >= 0"};
  }
  model_.validate();
  if (options_.mc_samples == 0) {
    throw std::invalid_argument{"FailureAwareObjective: mc_samples must be >= 1"};
  }
  if (!(options_.unavailable_penalty_ms >= 0.0) ||
      !std::isfinite(options_.unavailable_penalty_ms)) {
    throw std::invalid_argument{
        "FailureAwareObjective: unavailable_penalty_ms must be finite and >= 0"};
  }
}

std::string FailureAwareObjective::name() const {
  char buffer[96];
  if (model_.regional()) {
    std::snprintf(buffer, sizeof buffer, "failure-aware(p=%g,regional=%g,closest)",
                  model_.site_failure_prob, model_.region_failure_prob);
  } else {
    std::snprintf(buffer, sizeof buffer, "failure-aware(p=%g,closest)",
                  model_.site_failure_prob);
  }
  return buffer;
}

double FailureAwareObjective::evaluate_ws(const net::LatencySpace& space,
                                          const quorum::QuorumSystem& system,
                                          const Placement& placement,
                                          EvalWorkspace& workspace) const {
  (void)workspace;  // The expectation over failure sets keeps its own tables.
  return evaluate_detailed(space, system, placement).objective_ms;
}

FailureAwareEvaluation FailureAwareObjective::evaluate_detailed(
    const net::LatencySpace& space, const quorum::QuorumSystem& system,
    const Placement& placement) const {
  placement.validate(space.size());
  const std::size_t site_count = space.size();
  const std::size_t n = system.universe_size();
  if (placement.universe_size() != n) {
    throw std::invalid_argument{"FailureAwareObjective: placement size != universe"};
  }
  if (model_.regional() && model_.site_region.size() < site_count) {
    throw std::invalid_argument{
        "FailureAwareObjective: site_region shorter than the site count"};
  }
  const std::span<const double> weights = client_weights();
  if (!weights.empty() && weights.size() != site_count) {
    throw std::invalid_argument{"FailureAwareObjective: client weight count != clients"};
  }

  const std::vector<double> load = site_loads(space, system, placement);
  const StateEvaluator eval{space, placement, system, alpha_, load};

  const std::size_t clients = site_count;
  std::vector<double> response_mass(clients, 0.0);  // E[R ; available] per client.
  std::vector<double> avail(clients, 0.0);          // P(available) per client.
  const double p = model_.site_failure_prob;

  if (!model_.regional() && p == 0.0) {
    // Degenerate: nothing ever fails; the best live quorum is the closest.
    const std::vector<char> all_live(n, 1);
    for (std::size_t v = 0; v < clients; ++v) {
      bool available = false;
      response_mass[v] = eval.response(v, all_live, available);
      avail[v] = 1.0;
    }
  } else if (!model_.regional() && eval.majority_quorum_size() > 0 &&
             placement.one_to_one()) {
    // Exact order statistics: elements sit on distinct sites, so they fail
    // i.i.d.; the response is the q-th cheapest live x, landing on sorted
    // position j with probability C(j-1, q-1) (1-p)^q p^(j-q).
    const std::size_t q = eval.majority_quorum_size();
    double unavailable = 0.0;  // P(fewer than q of n live); client-independent.
    {
      double term = std::pow(p, static_cast<double>(n));  // j = 0 live sites.
      for (std::size_t j = 0; j < q; ++j) {
        unavailable += term;
        term *= (1.0 - p) / p * static_cast<double>(n - j) /
                static_cast<double>(j + 1);
      }
    }
    for (std::size_t v = 0; v < clients; ++v) {
      const std::vector<std::size_t>& order = eval.element_order(v);
      const std::vector<double>& x = eval.x(v);
      double mass = std::pow(1.0 - p, static_cast<double>(q));  // j = q.
      double expected = 0.0;
      for (std::size_t j = q; j <= n; ++j) {
        expected += mass * x[order[j - 1]];
        mass *= p * static_cast<double>(j) / static_cast<double>(j + 1 - q);
      }
      response_mass[v] = expected;
      avail[v] = 1.0 - unavailable;
    }
  } else if (!model_.regional() && eval.majority_quorum_size() == 0) {
    const std::vector<std::size_t> support = placement.support_set();
    if (support.size() <= options_.exact_site_limit && support.size() < 64) {
      // Exact enumeration of all 2^s support-site failure sets (colocated
      // elements correctly fail together).
      const std::size_t s = support.size();
      std::vector<std::size_t> support_index(site_count, 0);
      for (std::size_t i = 0; i < s; ++i) support_index[support[i]] = i;
      std::vector<double> up_pow(s + 1, 1.0);
      std::vector<double> down_pow(s + 1, 1.0);
      for (std::size_t i = 1; i <= s; ++i) {
        up_pow[i] = up_pow[i - 1] * (1.0 - p);
        down_pow[i] = down_pow[i - 1] * p;
      }
      std::vector<char> live(n, 0);
      for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << s); ++mask) {
        const auto down = static_cast<std::size_t>(std::popcount(mask));
        const double prob = up_pow[s - down] * down_pow[down];
        for (std::size_t u = 0; u < n; ++u) {
          const std::size_t bit = support_index[placement.site_of[u]];
          live[u] = static_cast<char>(((mask >> bit) & 1U) == 0);
        }
        for (std::size_t v = 0; v < clients; ++v) {
          bool available = false;
          const double response = eval.response(v, live, available);
          if (available) {
            response_mass[v] += prob * response;
            avail[v] += prob;
          }
        }
      }
    } else {
      run_monte_carlo(model_, options_, site_count, placement, eval, response_mass,
                      avail);
    }
  } else {
    run_monte_carlo(model_, options_, site_count, placement, eval, response_mass,
                    avail);
  }

  FailureAwareEvaluation out;
  double weighted_response = 0.0;
  double weighted_avail = 0.0;
  const double uniform = 1.0 / static_cast<double>(clients);
  for (std::size_t v = 0; v < clients; ++v) {
    const double w = weights.empty() ? uniform : weights[v];
    weighted_response += w * response_mass[v];
    weighted_avail += w * avail[v];
  }
  out.unavailability = 1.0 - weighted_avail;
  out.objective_ms =
      weighted_response + out.unavailability * options_.unavailable_penalty_ms;
  out.expected_response_ms =
      weighted_avail > 0.0 ? weighted_response / weighted_avail : 0.0;
  return out;
}

}  // namespace qp::core
