// Minimal discrete-event simulation engine: a time-ordered queue of typed
// events with a monotone simulation clock.
//
// The queue is a template over the simulator's event type — a small tagged
// struct the caller switches on in the dispatch functor passed to
// run_next/run_all. A typed value event is allocation-free (a
// std::function capture of {this, id, attempt, site, rtt} overflows every
// small-buffer optimization, at |Q| + 2 events per simulated request
// without retries and about 17 on a Grid 7x7 (|Q| = 13) with timeouts and
// retries).
//
// Ordering contract: events pop in lexicographic (time, sequence) order,
// where sequence is a monotone counter stamped at schedule() time. For equal
// timestamps that is *global scheduling order*, so an event scheduled from
// inside a dispatch at the current timestamp runs after every previously
// scheduled equal-time event, including ones already in the queue before the
// dispatch fired. This is what keeps replications deterministic and
// bit-identical across toolchains (tests/sim_test.cpp pins it, and checks
// the pop sequence against a binary-heap oracle in tests/support/).
//
// Layout: a calendar queue (R. Brown, "Calendar Queues", CACM 31(10),
// 1988). Time is cut into days of width w; day(t) = floor(t / w). A ring
// of B buckets (B a power of two) holds the days (today, today + B], one
// unsorted bucket per day; the current day's bucket is sorted by (time,
// sequence) when the clock reaches it and popped from its end. Events
// beyond the ring's reach wait in an overflow binary heap and move into
// the ring as the window slides over their day; when the ring runs empty
// the window jumps straight to the earliest overflow event. Because day()
// is monotone in time, every event of an earlier day precedes every event
// of a later one, so the pop order is exactly the (time, sequence) order
// above for any w. w and B only set the cost: whenever the population has
// doubled or halved since the last tuning, B becomes the next power of two
// above it and w becomes three times the mean separation of the earliest
// pending events, so a bucket holds a few events when the clock reaches
// it. The queue takes no width setting.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace qp::sim {

template <typename Event>
class EventQueue {
 public:
  EventQueue() : buckets_(kMinBuckets) {}

  /// Schedules `event` at absolute simulation time `time` (finite and
  /// >= now()); throws std::invalid_argument otherwise.
  void schedule(double time, Event event) {
    if (!std::isfinite(time)) {
      throw std::invalid_argument{"EventQueue: event time must be finite"};
    }
    if (time < now_) {
      throw std::invalid_argument{"EventQueue: cannot schedule in the past"};
    }
    place(Entry{time, next_sequence_++, std::move(event)});
    ++count_;
    peak_ = std::max(peak_, count_);
    if (count_ > 2 * tuned_size_) retune();
  }

  /// Pops the earliest event, advances the clock, and hands the event to
  /// `dispatch`; returns false when no events remain.
  template <typename Dispatch>
  // qp-lint: allow(test-only-export) -- run_all's step; the differential test pops one at a time
  bool run_next(Dispatch&& dispatch) {
    if (!load_current_day()) return false;
    Entry entry = std::move(current_.back());
    current_.pop_back();
    --count_;
    QP_CHECK(entry.time >= now_,
             "EventQueue: clock would run backwards (calendar ordering violated)");
    now_ = entry.time;
    ++executed_;
    if (tuned_size_ > kMinBuckets && 2 * count_ < tuned_size_) retune();
    dispatch(std::move(entry.event));
    return true;
  }

  /// Drains the queue completely.
  template <typename Dispatch>
  void run_all(Dispatch&& dispatch) {
    while (run_next(dispatch)) {
    }
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return count_; }
  /// The largest pending() seen so far.
  [[nodiscard]] std::size_t peak_pending() const noexcept { return peak_; }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }
  /// The current day width w (self-tuned; see the file comment).
  // qp-lint: allow(test-only-export) -- the differential test checks that bursts re-tune it
  [[nodiscard]] double bucket_width() const noexcept { return width_; }

 private:
  struct Entry {
    double time = 0.0;
    std::uint64_t sequence = 0;  // Scheduling-order tie-break at equal times.
    Event event;
  };
  struct Earlier {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.time < b.time;
    }
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  static constexpr std::size_t kMinBuckets = 16;
  // Earliest pending events whose mean separation sets the width.
  static constexpr std::size_t kSpacingSamples = 32;
  // Brown's width: three mean event separations.
  static constexpr double kSpacingFactor = 3.0;
  // Days at or past 2^52 share one day, so day() never overflows.
  static constexpr double kLastDay = 4503599627370496.0;

  [[nodiscard]] std::int64_t day(double time) const noexcept {
    const double d = time * inv_width_;  // time >= 0: truncation is floor.
    return static_cast<std::int64_t>(d < kLastDay ? d : kLastDay);
  }
  [[nodiscard]] std::vector<Entry>& bucket(std::int64_t d) noexcept {
    return buckets_[static_cast<std::size_t>(d) & (buckets_.size() - 1)];
  }
  [[nodiscard]] std::int64_t ring_end() const noexcept {
    return today_ + static_cast<std::int64_t>(buckets_.size());
  }

  /// Today's bucket if the event is due no later than today (it then runs
  /// before everything in the ring), a ring bucket within reach, else the
  /// overflow heap.
  void place(Entry&& entry) {
    const std::int64_t d = day(entry.time);
    if (d <= today_) {
      current_.insert(std::upper_bound(current_.begin(), current_.end(), entry, Later{}),
                      std::move(entry));
    } else if (d <= ring_end()) {
      bucket(d).push_back(std::move(entry));
      ++ring_count_;
    } else {
      overflow_.push_back(std::move(entry));
      std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    }
  }

  /// Moves the overflow events the ring now reaches into their buckets.
  void pull_overflow() {
    while (!overflow_.empty() && day(overflow_.front().time) <= ring_end()) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      bucket(day(overflow_.back().time)).push_back(std::move(overflow_.back()));
      overflow_.pop_back();
      ++ring_count_;
    }
  }

  /// Advances day by day until today's bucket holds an event and sorts it
  /// so the earliest sits at the back; false when the queue is empty.
  bool load_current_day() {
    while (current_.empty()) {
      if (count_ == 0) return false;
      if (ring_count_ == 0) {
        today_ = day(overflow_.front().time) - 1;
        pull_overflow();
      }
      ++today_;
      std::vector<Entry>& next = bucket(today_);
      ring_count_ -= next.size();
      current_.swap(next);
      pull_overflow();
      std::sort(current_.begin(), current_.end(), Later{});
    }
    return true;
  }

  /// Re-derives the width and the ring size for the current population
  /// and re-files every pending event. All pending times are >= now(), so
  /// today's bucket starts empty, one day before now()'s.
  void retune() {
    std::vector<Entry> all;
    all.reserve(count_);
    const auto take = [&all](std::vector<Entry>& from) {
      for (Entry& entry : from) all.push_back(std::move(entry));
      from.clear();
    };
    take(current_);
    for (std::vector<Entry>& b : buckets_) take(b);
    take(overflow_);

    // Mean separation of the earliest pending events: far-future outliers
    // (timeouts, a stray huge time) do not stretch it.
    double spacing = 0.0;
    if (all.size() > 1) {
      const std::size_t k = std::min(all.size() - 1, kSpacingSamples);
      std::nth_element(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                       all.end(), Earlier{});
      const double first =
          std::min_element(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                           Earlier{})
              ->time;
      spacing = (all[k].time - first) / static_cast<double>(k);
    }
    const double width = kSpacingFactor * spacing;
    if (width > 0.0 && std::isfinite(1.0 / width)) {
      width_ = width;
      inv_width_ = 1.0 / width;
    }
    tuned_size_ = std::max(count_, kMinBuckets);
    buckets_.resize(std::bit_ceil(tuned_size_));
    today_ = day(now_) - 1;
    ring_count_ = 0;
    for (Entry& entry : all) place(std::move(entry));
  }

  std::vector<Entry> current_;               // Today's events, latest first.
  std::vector<std::vector<Entry>> buckets_;  // Ring: day d in bucket d mod B.
  std::vector<Entry> overflow_;              // Heap of days past the ring.
  std::int64_t today_ = -1;
  std::size_t ring_count_ = 0;
  std::size_t count_ = 0;
  std::size_t peak_ = 0;
  double width_ = 1.0;
  double inv_width_ = 1.0;
  std::size_t tuned_size_ = kMinBuckets;  // Population at the last tuning.
  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace qp::sim
