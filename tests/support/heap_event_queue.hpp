// The binary-heap event queue: a std::priority_queue of (time, sequence,
// event) entries, the design sim::EventQueue replaced with a calendar queue.
// It is the order oracle for the calendar queue's differential test
// (tests/sim_test.cpp): same interface, same (time, sequence) pop contract,
// nothing shared with the production layout.
#pragma once

#include <cmath>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace qp::sim::test_support {

template <typename Event>
class HeapEventQueue {
 public:
  void schedule(double time, Event event) {
    if (!std::isfinite(time)) {
      throw std::invalid_argument{"HeapEventQueue: event time must be finite"};
    }
    if (time < now_) {
      throw std::invalid_argument{"HeapEventQueue: cannot schedule in the past"};
    }
    events_.push(Entry{time, next_sequence_++, std::move(event)});
  }

  template <typename Dispatch>
  bool run_next(Dispatch&& dispatch) {
    if (events_.empty()) return false;
    Entry entry = events_.top();
    events_.pop();
    now_ = entry.time;
    dispatch(std::move(entry.event));
    return true;
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return events_.size(); }

 private:
  struct Entry {
    double time = 0.0;
    std::uint64_t sequence = 0;
    Event event;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> events_;
  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace qp::sim::test_support
