#include "sim/service_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace qp::sim {

OutageSchedule::OutageSchedule(std::span<const ServerOutage> outages,
                               std::size_t site_count) {
  if (outages.empty()) return;
  by_site_.resize(site_count);
  for (const ServerOutage& outage : outages) {
    if (outage.site >= site_count) {
      throw std::out_of_range{"OutageSchedule: outage site out of range"};
    }
    if (!(outage.start_ms < outage.end_ms)) {
      throw std::invalid_argument{"OutageSchedule: outage window must be non-empty"};
    }
    by_site_[outage.site].emplace_back(outage.start_ms, outage.end_ms);
  }
  // Normalize each site to sorted, disjoint windows: overlapping and
  // abutting ([a,b) + [b,c)) windows merge, so down_at can binary-search.
  for (auto& windows : by_site_) {
    std::sort(windows.begin(), windows.end());
    std::size_t merged = 0;
    for (const auto& window : windows) {
      if (merged > 0 && window.first <= windows[merged - 1].second) {
        windows[merged - 1].second = std::max(windows[merged - 1].second, window.second);
      } else {
        windows[merged++] = window;
      }
    }
    windows.resize(merged);
  }
}

bool OutageSchedule::down_at(std::size_t site, double time) const noexcept {
  if (by_site_.empty()) return false;
  const auto& windows = by_site_[site];
  // The only window that can cover `time` is the last one starting at or
  // before it (windows are disjoint and ascending).
  const auto after = std::upper_bound(
      windows.begin(), windows.end(), time,
      [](double t, const std::pair<double, double>& w) { return t < w.first; });
  return after != windows.begin() && std::prev(after)->second > time;
}

std::span<const std::pair<double, double>> OutageSchedule::windows(
    std::size_t site) const noexcept {
  if (site >= by_site_.size()) return {};
  return by_site_[site];
}

ServiceStation::ServiceStation(double window_start, double window_end,
                               std::size_t capacity)
    : window_start_(window_start), window_end_(window_end), capacity_(capacity) {
  if (capacity_ != 0) departures_.emplace();
}

std::size_t ServiceStation::in_system(double time) noexcept {
  if (!departures_) return 0;
  while (!departures_->empty() && departures_->front() <= time) departures_->pop_front();
  return departures_->size();
}

double ServiceStation::accept(double now, double service_time) {
  const double start_service = std::max(next_free_, now);
  const double depart = start_service + service_time;
  next_free_ = depart;
  const double overlap = std::max(
      0.0, std::min(depart, window_end_) - std::max(start_service, window_start_));
  busy_ += overlap;
  if (departures_) departures_->push_back(depart);
  return depart;
}

}  // namespace qp::sim
