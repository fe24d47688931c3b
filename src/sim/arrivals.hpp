// Open-loop arrival processes for the queueing engine: Poisson, and a
// two-phase Markov-modulated Poisson process (MMPP) for bursty clients.
//
// The MMPP alternates exponentially-distributed ON/OFF phases (means 400 ms
// and 1600 ms); the ON phase multiplies the client's base rate by 4 and the
// OFF rate is scaled so the long-run mean rate equals the configured base
// rate, so bursty and Poisson runs are comparable at identical offered load.
// Arrivals are generated one at a time (the next draw happens when the
// previous arrival fires), so the generator walks phase boundaries inline
// instead of scheduling phase-change events.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace qp::sim {

enum class ArrivalModel { Poisson, Mmpp };

/// Per-client arrival stream, deterministic in the rng passed to each call.
class ArrivalGenerator {
 public:
  /// Requires rate_per_ms > 0 (throws std::invalid_argument); draws the
  /// initial phase from its stationary distribution when model == Mmpp.
  ArrivalGenerator(ArrivalModel model, double rate_per_ms, common::Rng& rng);

  /// The next arrival time strictly after `now`. `now` must not decrease
  /// across calls.
  [[nodiscard]] double next(double now, common::Rng& rng);

 private:
  ArrivalModel model_;
  double on_rate_ = 0.0;   // Arrivals per ms (Poisson uses on_rate_ only).
  double off_rate_ = 0.0;
  bool on_ = true;
  double phase_end_ = 0.0;
};

}  // namespace qp::sim
