#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>

#include <ostream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/strategy_sampler.hpp"

namespace qp::sim {

namespace {

// Engine telemetry: request accounting totals, stale replies and event
// counts (tallied once per replication, never per event), the response
// distribution, the peaks of the event queue's population and of the
// in-flight requests, and probe activity. The per-event hot path carries no
// obs calls at all.
const obs::Counter c_eng_runs = obs::counter("sim.engine.runs");
const obs::Counter c_eng_replications = obs::counter("sim.engine.replications");
const obs::Counter c_eng_issued = obs::counter("sim.engine.requests_issued");
const obs::Counter c_eng_completed =
    obs::counter("sim.engine.requests_completed");
const obs::Counter c_eng_failed = obs::counter("sim.engine.requests_failed");
const obs::Counter c_eng_abandoned =
    obs::counter("sim.engine.requests_abandoned");
const obs::Counter c_eng_retries = obs::counter("sim.engine.retries");
const obs::Counter c_eng_stale = obs::counter("sim.engine.stale_replies");
const obs::Counter c_eng_dropped = obs::counter("sim.engine.dropped_messages");
const obs::Counter c_eng_rejected =
    obs::counter("sim.engine.rejected_arrivals");
const obs::Counter c_eng_probes = obs::counter("sim.engine.probes");
const obs::Counter c_eng_events = obs::counter("sim.engine.events");
const obs::Histogram h_eng_response = obs::histogram("sim.engine.response_ms");
const obs::Histogram h_eng_queue_peak = obs::histogram("sim.engine.queue_peak");
const obs::Histogram h_eng_inflight_peak = obs::histogram("sim.engine.inflight_peak");

/// The engine's typed event union: one small value struct instead of a
/// heap-allocated std::function per event (|Q| + 2 events per request
/// without retries: its arrival, one message per quorum element and one
/// Done). `id` doubles as the client slot for Arrival events; the remaining
/// fields are meaningful per kind as noted.
struct EngineEvent {
  enum class Kind : std::uint8_t {
    Arrival,     // id = client slot; issues one request.
    Message,     // Request message reaches `site` after `half_rtt`.
    Done,        // The attempt's last reply lands at the client.
    Timeout,     // The attempt's retry timer expired.
    BeginRetry,  // Backoff elapsed; start the next attempt.
    Probe,       // Time-series snapshot; read-only, consumes no randomness.
  };
  Kind kind = Kind::Arrival;
  std::uint32_t attempt = 0;
  std::uint64_t id = 0;
  std::size_t site = 0;
  double half_rtt = 0.0;
  std::uint32_t entry = 0;  // Message: its entry in Request::outstanding.
};

/// The RTT from each client site to every quorum element's site, filled
/// once per run_engine through LatencySpace::fill_rtts (== rtt()) and read
/// by every replication: row(v)[u] = rtt(v, placement.site_of[u]). Only
/// sites with a positive arrival rate host clients, so only they get a row.
class ClientRttRows {
 public:
  ClientRttRows(const net::LatencySpace& space, const core::Placement& placement,
                std::span<const double> rates)
      : width_(placement.site_of.size()), offset_(rates.size(), 0) {
    for (std::size_t v = 0; v < rates.size(); ++v) {
      if (rates[v] <= 0.0) continue;
      offset_[v] = rtts_.size();
      rtts_.resize(rtts_.size() + width_);
      space.fill_rtts(v, placement.site_of.data(), width_, rtts_.data() + offset_[v]);
    }
  }

  [[nodiscard]] std::span<const double> row(std::size_t client) const noexcept {
    return {rtts_.data() + offset_[client], width_};
  }

 private:
  std::size_t width_;
  std::vector<std::size_t> offset_;  // Per site; meaningful for client sites.
  std::vector<double> rtts_;
};

/// One replication: owns the event queue, rng stream, stations, and request
/// table. Replications never share mutable state, so the fan-out is safe
/// and the serial-order reduction makes it bit-identical to a serial run.
class Replication {
 public:
  Replication(const net::LatencySpace& space, const quorum::QuorumSystem& system,
              const core::Placement& placement, std::span<const double> rates,
              const EngineConfig& config, const QuorumSampler& sampler,
              const ClientRttRows& rtt_rows, std::uint64_t seed)
      : system_(system),
        placement_(placement),
        rtt_rows_(rtt_rows),
        config_(config),
        sampler_(sampler),
        rng_(seed),
        end_of_issue_(config.warmup_ms + config.duration_ms),
        stations_(space.size(),
                  ServiceStation{config.warmup_ms, config.warmup_ms + config.duration_ms,
                                 config.queue_capacity}),
        outages_(config.outages, space.size()),
        suspicion_(space.size(), config.suspicion_ttl_ms),
        requests_(kInitialRequestSlots) {
    for (std::size_t v = 0; v < rates.size(); ++v) {
      if (rates[v] <= 0.0) continue;
      if (closed_loop()) {
        clients_.insert(clients_.end(), config.closed_loop_clients, v);
        continue;
      }
      clients_.push_back(v);
      generators_.emplace_back(config.arrival_model, rates[v], rng_);
    }
  }

  ReplicationResult run() {
    QP_TRACE_SPAN("sim.engine.replication");
    for (std::size_t slot = 0; slot < clients_.size(); ++slot) {
      // Closed-loop clients start staggered within the first millisecond so
      // that perfectly synchronized issues do not create artificial convoys.
      const double first =
          closed_loop() ? rng_.uniform() : generators_[slot].next(0.0, rng_);
      if (first < end_of_issue_) {
        queue_.schedule(first, EngineEvent{.id = slot});
      }
    }
    if (config_.probe_interval_ms > 0.0) {
      // Probes need queue occupancy on unbounded stations too; tracking is
      // observation-only (see ServiceStation::track_occupancy).
      for (ServiceStation& station : stations_) station.track_occupancy();
      queue_.schedule(config_.warmup_ms,
                      EngineEvent{.kind = EngineEvent::Kind::Probe});
    }
    queue_.run_all([this](const EngineEvent& event) { dispatch(event); });

    // Metrics, tallied once per replication at the end of the drain (the
    // per-event path carries no obs calls). The response histogram records
    // the samples in completion order, before they are sorted.
    c_eng_replications.add();
    c_eng_issued.add(issued_);
    c_eng_completed.add(completed_);
    c_eng_failed.add(failed_);
    c_eng_abandoned.add(abandoned_);
    c_eng_retries.add(retries_);
    c_eng_stale.add(stale_replies_);
    c_eng_dropped.add(dropped_);
    c_eng_rejected.add(rejected_);
    c_eng_probes.add(probes_.size());
    c_eng_events.add(queue_.executed());
    h_eng_queue_peak.record(static_cast<double>(queue_.peak_pending()));
    h_eng_inflight_peak.record(static_cast<double>(inflight_peak_));
    if (obs::enabled()) {
      for (double sample : samples_) h_eng_response.record(sample);
    }

    ReplicationResult result;
    result.response = response_;
    result.network = network_;
    std::sort(samples_.begin(), samples_.end());
    std::sort(unserved_wait_.begin(), unserved_wait_.end());
    if (!samples_.empty()) {
      result.p50_ms = common::percentile_sorted(samples_, 50.0);
      result.p95_ms = common::percentile_sorted(samples_, 95.0);
      result.p99_ms = common::percentile_sorted(samples_, 99.0);
    }
    result.site_utilization.reserve(stations_.size());
    for (const ServiceStation& station : stations_) {
      result.site_utilization.push_back(station.busy_in_window() / config_.duration_ms);
    }
    result.issued = issued_;
    result.completed = completed_;
    result.failed = failed_;
    result.abandoned = abandoned_;
    result.dropped_messages = dropped_;
    result.rejected_arrivals = rejected_;
    result.retries = retries_;
    result.stale_replies = stale_replies_;
    result.retried_response = retried_response_;
    result.unavailability =
        issued_ == 0 ? 0.0
                     : static_cast<double>(failed_ + abandoned_) /
                           static_cast<double>(issued_);
    result.response_samples = std::move(samples_);
    result.unserved_wait_ms = std::move(unserved_wait_);
    result.probes = std::move(probes_);
    return result;
  }

 private:
  struct Request {
    std::uint64_t id = kRetired;  // The request in this ring slot, if any.
    double start = 0.0;
    /// Latest reply time among the current attempt's admitted messages.
    double last_reply = -kNever;
    std::size_t slot = 0;  // Issuing client slot; its site is clients_[slot].
    /// Messages of the current attempt that have not reached their site.
    std::size_t pending = 0;
    std::uint32_t attempt = 0;       // Tag discarding stale messages/timeouts.
    std::size_t attempts_used = 0;
    bool failed = false;  // Retry off: a message was lost; the request fails.
    bool doomed = false;  // Retry on: a message of the attempt was lost.
    bool windowed = false;
    /// (site, reply time) of each message of the current attempt, the reply
    /// time +inf until its station admits it. The entries still unanswered
    /// when the attempt times out are its suspects. Maintained only with
    /// retries.
    std::vector<std::pair<std::size_t, double>> outstanding;
  };

  /// Pushes down/suspected sites behind every live one in the failover
  /// re-choice; large against any WAN RTT yet harmless to the argmin-max.
  static constexpr double kFailoverPenaltyMs = 1.0e7;
  static constexpr double kNever = std::numeric_limits<double>::infinity();
  static constexpr std::uint64_t kRetired = static_cast<std::uint64_t>(-1);
  static constexpr std::size_t kInitialRequestSlots = 64;

  [[nodiscard]] bool retry_enabled() const noexcept { return config_.retry.enabled(); }
  [[nodiscard]] bool closed_loop() const noexcept { return config_.closed_loop_clients > 0; }

  void dispatch(const EngineEvent& event) {
    switch (event.kind) {
      case EngineEvent::Kind::Arrival:
        arrival(static_cast<std::size_t>(event.id));
        break;
      case EngineEvent::Kind::Message:
        message(event.id, event.attempt, event.site, event.half_rtt, event.entry);
        break;
      case EngineEvent::Kind::Done:
        done(event.id, event.attempt);
        break;
      case EngineEvent::Kind::Timeout:
        timeout(event.id, event.attempt);
        break;
      case EngineEvent::Kind::BeginRetry:
        begin_retry(event.id, event.attempt);
        break;
      case EngineEvent::Kind::Probe:
        probe();
        break;
    }
  }

  /// Samples the replication's live state and schedules the next probe.
  /// Strictly read-only with respect to the simulation: no randomness is
  /// consumed and no request, station, or suspicion state is written
  /// (in_system only discards already-departed bookkeeping entries), so the
  /// event stream and every result are bitwise unchanged by probing.
  void probe() {
    const double now = queue_.now();
    EngineProbe sample;
    sample.t_ms = now;
    for (ServiceStation& station : stations_) {
      sample.busy_sites += station.busy_at(now) ? 1 : 0;
      sample.queued_messages += station.in_system(now);
    }
    sample.busy_fraction = stations_.empty()
                               ? 0.0
                               : static_cast<double>(sample.busy_sites) /
                                     static_cast<double>(stations_.size());
    sample.inflight_requests = inflight_;
    sample.suspected_sites = suspicion_.suspected_count(now);
    sample.issued = issued_;
    sample.completed = completed_;
    sample.failed = failed_;
    sample.abandoned = abandoned_;
    sample.retries = retries_;
    probes_.push_back(sample);
    const double next = now + config_.probe_interval_ms;
    if (next <= end_of_issue_) {
      queue_.schedule(next, EngineEvent{.kind = EngineEvent::Kind::Probe});
    }
  }

  [[nodiscard]] double draw_service() {
    return config_.service_model == ServiceModel::Deterministic
               ? config_.service_time_ms
               : rng_.exponential(config_.service_time_ms);
  }

  /// An arrival event for client slot: issue one request, then (open loop)
  /// schedule the client's next arrival. A closed-loop client's next
  /// request follows this one's resolution instead (retire).
  void arrival(std::size_t slot) {
    const double now = queue_.now();
    issue(slot, now);
    if (closed_loop()) return;
    const double next = generators_[slot].next(now, rng_);
    if (next < end_of_issue_) {
      queue_.schedule(next, EngineEvent{.id = slot});
    }
  }

  void issue(std::size_t slot, double now) {
    const std::uint64_t id = next_request_++;
    Request& request = admit(id);
    request.start = now;
    request.slot = slot;
    request.pending = 0;
    request.attempt = 0;
    request.attempts_used = 0;
    request.failed = false;
    request.windowed = now >= config_.warmup_ms && now < end_of_issue_;
    if (request.windowed) ++issued_;
    start_attempt(id, request, now);
  }

  // The request table is a ring indexed by id modulo its power-of-two size.
  // Ids are issued in order and the ring always spans every id from the
  // oldest unresolved one (oldest_) to the newest, so a live id owns its
  // slot; a slot keeps its `outstanding` capacity from one request to the
  // next.

  /// The in-flight request `id`, or nullptr once it has resolved.
  Request* find(std::uint64_t id) noexcept {
    Request& request = requests_[id & (requests_.size() - 1)];
    return request.id == id ? &request : nullptr;
  }

  Request& admit(std::uint64_t id) {
    if (id - oldest_ >= requests_.size()) {
      std::vector<Request> grown(2 * requests_.size());
      for (Request& request : requests_) {
        if (request.id != kRetired) {
          grown[request.id & (grown.size() - 1)] = std::move(request);
        }
      }
      requests_ = std::move(grown);
    }
    inflight_peak_ = std::max(inflight_peak_, ++inflight_);
    Request& request = requests_[id & (requests_.size() - 1)];
    request.id = id;
    return request;
  }

  /// The quorum the current attempt of `request` uses. The failover modes
  /// re-choose the minimum-RTT quorum with down (Oracle) or suspected
  /// (Suspicion, retries only) sites penalized behind every live one —
  /// still a valid quorum when no fully-live one exists, so the attempt
  /// simply times out and tries again.
  const quorum::Quorum& choose_quorum(const Request& request, double now) {
    const bool rechoice =
        config_.failover == FailoverMode::Oracle ||
        (config_.failover == FailoverMode::Suspicion && request.attempt > 1);
    if (!rechoice) return sampler_.draw(clients_[request.slot], rng_, scratch_);
    const std::span<const double> rtts = rtt_rows_.row(clients_[request.slot]);
    const std::size_t n = placement_.site_of.size();
    values_.resize(n);
    for (std::size_t u = 0; u < n; ++u) {
      const std::size_t site = placement_.site_of[u];
      const bool avoid = config_.failover == FailoverMode::Oracle
                             ? outages_.down_at(site, now)
                             : suspicion_.suspected(site, now);
      values_[u] = rtts[u] + (avoid ? kFailoverPenaltyMs : 0.0);
    }
    failover_quorum_ = system_.best_quorum(values_);
    return failover_quorum_;
  }

  /// Sends one attempt of the request to a quorum and (with retries) arms
  /// its timeout.
  void start_attempt(std::uint64_t id, Request& request, double now) {
    ++request.attempt;
    ++request.attempts_used;
    if (request.attempts_used > 1) ++retries_;
    const quorum::Quorum& chosen = choose_quorum(request, now);
    request.pending = chosen.size();
    request.last_reply = -kNever;
    request.doomed = false;
    request.outstanding.clear();
    const std::uint32_t attempt = request.attempt;
    const std::span<const double> rtts = rtt_rows_.row(clients_[request.slot]);
    double max_rtt = 0.0;
    std::uint32_t entry = 0;
    for (std::size_t u : chosen) {
      const std::size_t site = placement_.site_of[u];
      const double rtt = rtts[u];
      max_rtt = std::max(max_rtt, rtt);
      if (retry_enabled()) request.outstanding.emplace_back(site, kNever);
      const double half = rtt / 2.0;
      queue_.schedule(now + half, EngineEvent{EngineEvent::Kind::Message, attempt, id,
                                              site, half, entry++});
    }
    if (request.attempts_used == 1 && request.windowed) network_.add(max_rtt);
    if (retry_enabled()) {
      queue_.schedule(now + config_.retry.timeout_ms,
                      EngineEvent{EngineEvent::Kind::Timeout, attempt, id});
    }
  }

  /// A message reaches its site: an outage drops it, a full queue rejects
  /// it, otherwise the FIFO station admits it and its reply time is known
  /// at once. The request needs no event per reply: once the attempt's last
  /// message has reached its site, one Done at the latest reply time
  /// completes it. A lost message fails the request once the rest have
  /// landed (retry off) or leaves the attempt to its timeout (retry on).
  void message(std::uint64_t id, std::uint32_t attempt, std::size_t site,
               double half_rtt, std::uint32_t entry) {
    const double now = queue_.now();
    double reply = kNever;
    if (outages_.down_at(site, now)) {
      ++dropped_;
    } else if (stations_[site].full(now)) {
      ++rejected_;
    } else {
      reply = stations_[site].accept(now, draw_service()) + half_rtt;
    }
    Request* const found = find(id);
    if (found == nullptr || found->attempt != attempt) {
      // The attempt timed out while the message was in flight. An admitted
      // message still takes its turn at the station; its reply is stale.
      QP_CHECK(retry_enabled(),
               "Replication::message: message for a request that is not in "
               "flight (double completion or table corruption)");
      if (reply != kNever) ++stale_replies_;
      return;
    }
    Request& request = *found;
    QP_CHECK(request.pending > 0,
             "Replication::message: attempt has no messages in flight");
    --request.pending;
    if (reply == kNever) {
      (retry_enabled() ? request.doomed : request.failed) = true;
    } else {
      request.last_reply = std::max(request.last_reply, reply);
      if (retry_enabled()) request.outstanding[entry].second = reply;
    }
    if (request.pending > 0) return;
    if (request.failed && !(request.last_reply > now)) {
      finish(request);  // Retry off: lost, and no reply is still on its way.
    } else if (!request.doomed) {
      queue_.schedule(request.last_reply,
                      EngineEvent{EngineEvent::Kind::Done, attempt, id});
    }
  }

  /// The attempt's last reply landed. Stale when its timeout fired first
  /// (at or before this instant) and retried or abandoned the request.
  void done(std::uint64_t id, std::uint32_t attempt) {
    Request* const found = find(id);
    if (retry_enabled() && (found == nullptr || found->attempt != attempt)) return;
    QP_CHECK(found != nullptr && found->attempt == attempt,
             "Replication::done: completion for a request that is not in flight "
             "(double completion or table corruption)");
    QP_CHECK(found->pending == 0 && !found->doomed,
             "Replication::done: attempt still has messages in flight or lost one");
    finish(*found);
  }

  /// Records the resolved request (windowed only) and retires it.
  void finish(Request& request) {
    if (request.windowed) {
      const double elapsed = queue_.now() - request.start;
      if (request.failed) {
        ++failed_;
        unserved_wait_.push_back(elapsed);
      } else {
        ++completed_;
        response_.add(elapsed);
        samples_.push_back(elapsed);
        if (request.attempts_used > 1) retried_response_.add(elapsed);
      }
    }
    retire(request);
  }

  /// Drops a resolved request; its closed-loop client issues the next one
  /// at once, until the issue window closes.
  void retire(Request& request) {
    const std::size_t slot = request.slot;
    request.id = kRetired;
    --inflight_;
    while (oldest_ < next_request_ && find(oldest_) == nullptr) ++oldest_;
    const double now = queue_.now();
    if (closed_loop() && now < end_of_issue_) issue(slot, now);
  }

  /// The attempt's timeout expired. Stale when the attempt completed (the
  /// request was retired) or already moved on (tag mismatch) — then it is a
  /// no-op and in particular must not count toward retries.
  void timeout(std::uint64_t id, std::uint32_t attempt) {
    Request* const found = find(id);
    if (found == nullptr || found->attempt != attempt) return;
    Request& request = *found;
    const double now = queue_.now();
    QP_CHECK(request.pending > 0 || request.doomed || request.last_reply >= now,
             "Replication::timeout: armed attempt already completed");
    // A reply due exactly now would land after this timer, which was armed
    // first. Every message not answered before now is a suspect; the
    // admitted ones among them reply stale.
    for (const auto& [site, reply] : request.outstanding) {
      if (reply < now) continue;
      if (reply != kNever) ++stale_replies_;
      if (config_.failover == FailoverMode::Suspicion) suspicion_.suspect(site, now);
    }
    if (request.attempts_used >= config_.retry.max_attempts) {
      if (request.windowed) {
        ++abandoned_;
        unserved_wait_.push_back(now - request.start);
      }
      retire(request);
      return;
    }
    const double delay = config_.retry.backoff_delay(request.attempts_used, rng_);
    if (delay <= 0.0) {
      start_attempt(id, request, now);
      return;
    }
    // Kill the timed-out attempt before waiting: bump the tag so its
    // straggler messages and its Done are recognized as stale.
    ++request.attempt;
    const std::uint32_t backoff_tag = request.attempt;
    queue_.schedule(now + delay,
                    EngineEvent{EngineEvent::Kind::BeginRetry, backoff_tag, id});
  }

  void begin_retry(std::uint64_t id, std::uint32_t backoff_tag) {
    Request* const request = find(id);
    QP_CHECK(request != nullptr && request->attempt == backoff_tag,
             "Replication::begin_retry: request vanished during backoff");
    // The backoff tag consumed an attempt number but issued no messages;
    // hand the slot back so attempts_used keeps counting real attempts.
    --request->attempt;
    start_attempt(id, *request, queue_.now());
  }

  const quorum::QuorumSystem& system_;
  const core::Placement& placement_;
  const ClientRttRows& rtt_rows_;
  const EngineConfig& config_;
  const QuorumSampler& sampler_;
  common::Rng rng_;
  double end_of_issue_;

  EventQueue<EngineEvent> queue_;
  std::vector<ServiceStation> stations_;
  OutageSchedule outages_;
  SuspicionList suspicion_;
  // Client slot -> site: the sites with a positive rate, each repeated
  // closed_loop_clients times in closed loop.
  std::vector<std::size_t> clients_;
  std::vector<ArrivalGenerator> generators_;    // Parallel to clients_ (open loop).
  std::vector<Request> requests_;  // Ring by request id; see find().
  std::uint64_t next_request_ = 0;
  std::uint64_t oldest_ = 0;  // Every id below it has resolved.
  std::size_t inflight_ = 0;
  std::size_t inflight_peak_ = 0;  // Most requests in flight at once.
  quorum::Quorum scratch_;
  quorum::Quorum failover_quorum_;  // choose_quorum's re-choice result.
  std::vector<double> values_;      // Per-element RTT + penalty scratch.

  common::RunningStats response_;
  common::RunningStats network_;
  common::RunningStats retried_response_;
  std::vector<double> samples_;
  std::vector<double> unserved_wait_;
  std::vector<EngineProbe> probes_;
  std::size_t issued_ = 0;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::size_t abandoned_ = 0;
  std::size_t dropped_ = 0;
  std::size_t rejected_ = 0;
  std::size_t retries_ = 0;
  std::size_t stale_replies_ = 0;
};

QuorumSampler make_sampler(const net::LatencySpace& space,
                           const quorum::QuorumSystem& system,
                           const core::Placement& placement, const EngineConfig& config) {
  switch (config.strategy) {
    case EngineStrategy::Closest:
      return QuorumSampler::closest(space, system, placement);
    case EngineStrategy::Balanced:
      return QuorumSampler::balanced(system);
    case EngineStrategy::Explicit:
      if (config.explicit_strategy == nullptr) {
        throw std::invalid_argument{
            "run_engine: EngineStrategy::Explicit needs an explicit_strategy"};
      }
      return QuorumSampler::explicit_strategy(*config.explicit_strategy, space.size(),
                                              system);
  }
  throw std::logic_error{"run_engine: unknown strategy"};
}

/// Appends the ascending run `more` to the ascending `sorted`, which stays
/// ascending.
void merge_sorted(std::vector<double>& sorted, std::span<const double> more) {
  const auto middle = static_cast<std::ptrdiff_t>(sorted.size());
  sorted.insert(sorted.end(), more.begin(), more.end());
  std::inplace_merge(sorted.begin(), sorted.begin() + middle, sorted.end());
}

}  // namespace

std::uint64_t replication_seed(std::uint64_t master_seed,
                               std::size_t replication) noexcept {
  std::uint64_t state = master_seed;
  std::uint64_t seed = common::splitmix64(state);
  for (std::size_t i = 0; i < replication; ++i) seed = common::splitmix64(state);
  return seed;
}

EngineResult run_engine(const net::LatencySpace& space,
                        const quorum::QuorumSystem& system,
                        const core::Placement& placement,
                        std::span<const double> arrival_rates_per_ms,
                        const EngineConfig& config) {
  QP_TRACE_SPAN("sim.engine.run");
  c_eng_runs.add();
  placement.validate(space.size());
  if (config.probe_interval_ms < 0.0 || !std::isfinite(config.probe_interval_ms)) {
    throw std::invalid_argument{"run_engine: probe_interval_ms must be finite and >= 0"};
  }
  if (arrival_rates_per_ms.size() != space.size()) {
    throw std::invalid_argument{"run_engine: one arrival rate per site required"};
  }
  double total_rate = 0.0;
  for (double rate : arrival_rates_per_ms) {
    if (!(rate >= 0.0) || !std::isfinite(rate)) {
      throw std::invalid_argument{"run_engine: arrival rates must be finite and >= 0"};
    }
    total_rate += rate;
  }
  if (total_rate <= 0.0) {
    throw std::invalid_argument{"run_engine: no client has a positive arrival rate"};
  }
  if (!(config.service_time_ms > 0.0) || !(config.duration_ms > 0.0) ||
      !(config.warmup_ms >= 0.0)) {
    throw std::invalid_argument{"run_engine: bad timing configuration"};
  }
  if (config.replications == 0) {
    throw std::invalid_argument{"run_engine: replications must be >= 1"};
  }
  config.retry.validate();
  if (config.failover != FailoverMode::None && !config.retry.enabled()) {
    throw std::invalid_argument{
        "run_engine: failover re-choice requires an enabled retry policy"};
  }
  if (config.failover == FailoverMode::Suspicion && !(config.suspicion_ttl_ms > 0.0)) {
    throw std::invalid_argument{
        "run_engine: FailoverMode::Suspicion needs a positive suspicion_ttl_ms"};
  }
  if (config.closed_loop_clients > 0 && !config.retry.enabled() &&
      (!config.outages.empty() || config.queue_capacity > 0)) {
    throw std::invalid_argument{
        "run_engine: closed-loop clients with outages or a finite queue need an "
        "enabled retry policy"};
  }

  const QuorumSampler sampler = make_sampler(space, system, placement, config);
  const ClientRttRows rtt_rows{space, placement, arrival_rates_per_ms};
  // Validate the outage schedule once up front (each replication rebuilds
  // its own copy; a bad site index should throw before the fan-out).
  (void)OutageSchedule{config.outages, space.size()};

  std::vector<ReplicationResult> replications(config.replications);
  common::ThreadPool& pool =
      config.pool != nullptr ? *config.pool : common::global_thread_pool();
  pool.parallel_for(0, config.replications, [&](std::size_t r) {
    Replication replication{space,  system,   placement,
                            arrival_rates_per_ms, config, sampler,
                            rtt_rows, replication_seed(config.master_seed, r)};
    replications[r] = replication.run();
  });

  EngineResult result;
  result.site_utilization.assign(space.size(), 0.0);
  common::RunningStats network;
  std::vector<double> pooled;
  std::vector<double> degraded;  // Served responses + unserved give-up waits.
  for (const ReplicationResult& rep : replications) {
    result.response.merge(rep.response);
    network.merge(rep.network);
    for (std::size_t w = 0; w < space.size(); ++w) {
      result.site_utilization[w] += rep.site_utilization[w];
    }
    result.issued += rep.issued;
    result.completed += rep.completed;
    result.failed += rep.failed;
    result.abandoned += rep.abandoned;
    result.dropped_messages += rep.dropped_messages;
    result.rejected_arrivals += rep.rejected_arrivals;
    result.retries += rep.retries;
    result.stale_replies += rep.stale_replies;
    result.retried_response.merge(rep.retried_response);
    merge_sorted(pooled, rep.response_samples);
    merge_sorted(degraded, rep.unserved_wait_ms);
  }
  // run_all drains every event, so every measurement-window request must
  // have resolved exactly once as completed, failed, or abandoned — under
  // arbitrary fault schedules and retry policies.
  QP_CHECK(result.completed + result.failed + result.abandoned == result.issued,
           "run_engine: windowed request accounting does not balance");
  result.unavailability =
      result.issued == 0
          ? 0.0
          : static_cast<double>(result.failed + result.abandoned) /
                static_cast<double>(result.issued);
  const double inv_reps = 1.0 / static_cast<double>(config.replications);
  for (double& utilization : result.site_utilization) utilization *= inv_reps;
  result.peak_utilization =
      *std::max_element(result.site_utilization.begin(), result.site_utilization.end());
  result.mean_response_ms = result.response.mean();
  result.mean_network_delay_ms = network.mean();
  if (!pooled.empty()) {
    result.p50_ms = common::percentile_sorted(pooled, 50.0);
    result.p95_ms = common::percentile_sorted(pooled, 95.0);
    result.p99_ms = common::percentile_sorted(pooled, 99.0);
  }
  merge_sorted(degraded, pooled);
  if (!degraded.empty()) {
    result.degraded_p99_ms = common::percentile_sorted(degraded, 99.0);
  }
  result.replications = std::move(replications);
  return result;
}

void write_engine_timeseries_csv(const EngineResult& result, std::ostream& out) {
  out << "replication,t_ms,busy_sites,busy_fraction,queued_messages,"
         "inflight_requests,suspected_sites,issued,completed,failed,"
         "abandoned,retries\n";
  for (std::size_t r = 0; r < result.replications.size(); ++r) {
    for (const EngineProbe& p : result.replications[r].probes) {
      out << r << ',' << p.t_ms << ',' << p.busy_sites << ','
          << p.busy_fraction << ',' << p.queued_messages << ','
          << p.inflight_requests << ',' << p.suspected_sites << ','
          << p.issued << ',' << p.completed << ',' << p.failed << ','
          << p.abandoned << ',' << p.retries << '\n';
    }
  }
}

std::vector<double> scale_rates_to_peak_utilization(std::span<const double> rates,
                                                    std::span<const double> site_load,
                                                    double service_time_ms,
                                                    double peak_rho) {
  if (!(service_time_ms > 0.0) || !(peak_rho > 0.0)) {
    throw std::invalid_argument{
        "scale_rates_to_peak_utilization: service time and rho must be positive"};
  }
  double total = 0.0;
  for (double rate : rates) total += rate;
  const double max_load =
      site_load.empty() ? 0.0 : *std::max_element(site_load.begin(), site_load.end());
  if (!(total > 0.0) || !(max_load > 0.0)) {
    throw std::invalid_argument{
        "scale_rates_to_peak_utilization: rates and site loads must carry mass"};
  }
  const double factor = peak_rho / (service_time_ms * total * max_load);
  std::vector<double> scaled(rates.begin(), rates.end());
  for (double& rate : scaled) rate *= factor;
  return scaled;
}

}  // namespace qp::sim
