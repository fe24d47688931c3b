#include "sim/arrivals.hpp"

#include <limits>
#include <stdexcept>

namespace qp::sim {

namespace {

/// MMPP: the ON phase multiplies the base rate by kBurst; the OFF rate is
/// rate * kOffScale, with f = kMeanOnMs / (kMeanOnMs + kMeanOffMs), so the
/// long-run mean stays at the base rate.
constexpr double kBurst = 4.0;
constexpr double kMeanOnMs = 400.0;
constexpr double kMeanOffMs = 1'600.0;
constexpr double kOnFraction = kMeanOnMs / (kMeanOnMs + kMeanOffMs);
constexpr double kOffScale = (1.0 - kOnFraction * kBurst) / (1.0 - kOnFraction);
static_assert(kBurst >= 1.0, "the MMPP ON phase must not slow arrivals down");
static_assert(kOffScale > 0.0,
              "MMPP burst too large for the ON fraction: burst * mean_on must stay "
              "below mean_on + mean_off");

}  // namespace

ArrivalGenerator::ArrivalGenerator(ArrivalModel model, double rate_per_ms, common::Rng& rng)
    : model_(model) {
  if (!(rate_per_ms > 0.0)) {
    throw std::invalid_argument{"ArrivalGenerator: rate must be positive"};
  }
  if (model_ == ArrivalModel::Poisson) {
    on_rate_ = rate_per_ms;
    phase_end_ = std::numeric_limits<double>::infinity();
    return;
  }
  on_rate_ = rate_per_ms * kBurst;
  off_rate_ = rate_per_ms * kOffScale;
  // Stationary start: ON with probability f, phase remainder memoryless.
  on_ = rng.uniform() < kOnFraction;
  phase_end_ = rng.exponential(on_ ? kMeanOnMs : kMeanOffMs);
}

double ArrivalGenerator::next(double now, common::Rng& rng) {
  if (model_ == ArrivalModel::Poisson) {
    return now + rng.exponential(1.0 / on_rate_);
  }
  while (true) {
    const double rate = on_ ? on_rate_ : off_rate_;
    const double candidate = now + rng.exponential(1.0 / rate);
    if (candidate <= phase_end_) return candidate;
    // No arrival before the phase flips: restart the draw from the boundary
    // (memorylessness makes the discarded partial draw exact, not approximate).
    now = phase_end_;
    on_ = !on_;
    phase_end_ = now + rng.exponential(on_ ? kMeanOnMs : kMeanOffMs);
  }
}

}  // namespace qp::sim
