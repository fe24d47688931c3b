// Shared discrete-event server components: a single-core FIFO service
// station with optional finite capacity and measurement-window busy-time
// accounting, plus a per-site outage schedule. The queueing engine
// (sim/engine), open or closed loop, is a thin layer over these.
//
// A FIFO single server whose service times are known on admission can
// compute every departure synchronously — depart = max(next_free, now) +
// service — so stations need no events of their own: the caller knows each
// reply's time the moment the message is admitted. Queue length (for finite
// capacity) falls out of the same representation: the messages in the
// system at time t are exactly the admitted messages whose departure lies
// beyond t.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace qp::sim {

/// A server outage: messages arriving at `site` in [start_ms, end_ms) are
/// silently dropped (crash during the window, no replies).
struct ServerOutage {
  std::size_t site = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Per-site outage windows, validated once at construction. Queued work
/// survives an outage (the crash model drops arriving messages only), so
/// a site drains its backlog during its window and resumes afterwards.
///
/// Windows are sorted and merged per site at construction (overlapping and
/// abutting windows coalesce — [a, b) followed by [b, c) is one down
/// interval [a, c) under the half-open drop semantics), so down_at is a
/// binary search over disjoint intervals: fault-injected schedules carry
/// hundreds of windows per site and down_at sits on the per-message hot
/// path. The schedule doubles as the live up/down oracle of the engine's
/// oracle-failover mode and the FaultInjector's compiled output.
class OutageSchedule {
 public:
  OutageSchedule() = default;
  /// Throws std::out_of_range on an outage site >= site_count and
  /// std::invalid_argument on an empty window.
  OutageSchedule(std::span<const ServerOutage> outages, std::size_t site_count);

  [[nodiscard]] bool empty() const noexcept { return by_site_.empty(); }
  [[nodiscard]] bool down_at(std::size_t site, double time) const noexcept;

  /// The merged, disjoint, strictly ascending down windows of `site` (empty
  /// when the site never fails). Exposed for tests and schedule statistics.
  [[nodiscard]] std::span<const std::pair<double, double>> windows(
      std::size_t site) const noexcept;

 private:
  std::vector<std::vector<std::pair<double, double>>> by_site_;
};

/// Work-conserving FIFO single server. Service requirements are supplied by
/// the caller on admission (deterministic, exponential, whatever), so the
/// departure time is returned synchronously. Busy time overlapping the
/// measurement window [window_start, window_end) is accumulated for
/// utilization reporting. capacity == 0 means an unbounded queue and keeps
/// the station a few scalars (no per-message bookkeeping, no allocation).
class ServiceStation {
 public:
  ServiceStation() = default;
  ServiceStation(double window_start, double window_end, std::size_t capacity = 0);

  /// Messages queued or in service at `time` (bounded or tracked stations
  /// only; the others always report 0). Drops departed entries, so
  /// `time` must not decrease across calls — event-queue order guarantees
  /// that.
  [[nodiscard]] std::size_t in_system(double time) noexcept;

  /// True when a message arriving at `time` would exceed the capacity.
  [[nodiscard]] bool full(double time) noexcept {
    return capacity_ != 0 && in_system(time) >= capacity_;
  }

  /// Admits a message at `now` with the given service requirement and
  /// returns its departure time. The caller checks full() first; accept
  /// never rejects.
  double accept(double now, double service_time);

  /// Service time accumulated inside the measurement window, ms.
  [[nodiscard]] double busy_in_window() const noexcept { return busy_; }

  /// True when the server core is working at `time`.
  [[nodiscard]] bool busy_at(double time) const noexcept {
    return next_free_ > time;
  }

  /// Turns on departure bookkeeping for an unbounded station so probes can
  /// read in_system(). Admission decisions never look at the tracked
  /// departures unless capacity_ != 0, so tracking is observation-only: it
  /// cannot change any admission, departure, or busy-time result. Bounded
  /// stations always track.
  void track_occupancy() {
    if (!departures_) departures_.emplace();
  }

 private:
  double window_start_ = 0.0;
  double window_end_ = 0.0;
  double next_free_ = 0.0;
  double busy_ = 0.0;
  std::size_t capacity_ = 0;
  /// Departure times of admitted messages still in the system, ascending
  /// (FIFO). Present only when capacity_ > 0 or occupancy is tracked, so
  /// an untracked unbounded station (and every copy of it) allocates
  /// nothing.
  std::optional<std::deque<double>> departures_;
};

}  // namespace qp::sim
