#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/eval_workspace.hpp"
#include "core/placement.hpp"
#include "net/synthetic.hpp"
#include "quorum/majority.hpp"
#include "quorum/singleton.hpp"
#include "sim/client_sites.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "support/heap_event_queue.hpp"

namespace qp::sim {
namespace {

using net::LatencyMatrix;

// -------------------------------------------------------------- EventQueue

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue<int> queue;
  std::vector<int> order;
  queue.schedule(3.0, 3);
  queue.schedule(1.0, 1);
  queue.schedule(2.0, 2);
  queue.run_all([&](int value) { order.push_back(value); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
  EXPECT_EQ(queue.executed(), 3u);
}

TEST(EventQueue, FifoAtEqualTimes) {
  EventQueue<int> queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(1.0, i);
  }
  queue.run_all([&](int value) { order.push_back(value); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EqualTimestampPopOrderIsInsertionOrderPinned) {
  // Pin the FIFO tie-break under heap churn: equal-timestamp events must pop
  // in scheduling order even when interleaved with earlier/later events and
  // with events scheduled from inside callbacks. A priority_queue without
  // the stable sequence counter passes the trivial all-equal case but fails
  // this one on some libstdc++ heap layouts, silently de-synchronizing
  // simulation runs across toolchains.
  EventQueue<int> queue;
  std::vector<int> order;
  queue.schedule(2.0, 10);
  queue.schedule(1.0, 0);
  queue.schedule(3.0, 20);
  queue.schedule(1.0, 1);
  queue.schedule(2.0, 11);
  queue.run_all([&](int value) {
    order.push_back(value);
    if (value == 0) {
      queue.schedule(2.0, 12);  // After both already-queued 2.0 events.
      queue.schedule(1.0, 2);   // After the other 1.0 event.
    }
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12, 20}));

  // Larger churn: 64 batches scheduled round-robin over 8 shared timestamps
  // must drain batch-insertion order within each timestamp.
  EventQueue<int> stress;
  std::vector<std::pair<int, int>> fired;  // (time index, insertion index).
  for (int i = 0; i < 64; ++i) {
    const int t = i % 8;
    stress.schedule(static_cast<double>(t), i);
  }
  stress.run_all([&](int i) { fired.emplace_back(i % 8, i); });
  ASSERT_EQ(fired.size(), 64u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second) << "at position " << i;
    } else {
      EXPECT_LT(fired[i - 1].first, fired[i].first) << "at position " << i;
    }
  }
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue<int> queue;
  int fired = 0;
  queue.schedule(1.0, 0);
  queue.run_all([&](int value) {
    ++fired;
    if (value == 0) queue.schedule(2.0, 1);
  });
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue<int> queue;
  queue.schedule(5.0, 0);
  queue.run_all([](int) {});
  EXPECT_THROW(queue.schedule(1.0, 0), std::invalid_argument);
}

TEST(EventQueue, RejectsNonFiniteTimes) {
  EventQueue<int> queue;
  queue.schedule(1.0, 0);
  EXPECT_THROW(queue.schedule(std::numeric_limits<double>::quiet_NaN(), 1),
               std::invalid_argument);
  EXPECT_THROW(queue.schedule(std::numeric_limits<double>::infinity(), 1),
               std::invalid_argument);
  EXPECT_THROW(queue.schedule(-std::numeric_limits<double>::infinity(), 1),
               std::invalid_argument);
  EXPECT_EQ(queue.pending(), 1u);
  std::vector<int> order;
  queue.run_all([&](int value) { order.push_back(value); });
  EXPECT_EQ(order, (std::vector<int>{0}));
}

// ------------------------------------- EventQueue vs the binary-heap oracle

/// One queue under a seeded script. Each event is an id; when it runs, the
/// script returns the offsets (from the clock) of the children it schedules
/// from inside the dispatch, as a pure function of the id and the queue's
/// population. Two drivers fed the same script therefore stay in lockstep
/// exactly as long as their queues pop the same sequence.
template <typename Queue>
struct Driver {
  using Script = std::function<std::vector<double>(std::uint64_t id, std::size_t pending)>;

  explicit Driver(Script s) : script(std::move(s)) {}

  void add(double time) { queue.schedule(time, next_id++); }

  void dispatch(std::uint64_t id) {
    fired.push_back(id);
    for (double offset : script(id, queue.pending())) add(queue.now() + offset);
  }

  bool step() {
    return queue.run_next([this](std::uint64_t id) { dispatch(id); });
  }

  Queue queue;
  Script script;
  std::uint64_t next_id = 0;
  std::vector<std::uint64_t> fired;
};

/// The calendar queue and the oracle, driven in lockstep.
struct Lockstep {
  explicit Lockstep(const Driver<EventQueue<std::uint64_t>>::Script& script)
      : calendar(script), heap(script) {}

  void add(double time) {
    calendar.add(time);
    heap.add(time);
  }

  void expect_same(const char* where) const {
    ASSERT_EQ(calendar.fired.size(), heap.fired.size()) << where;
    if (!calendar.fired.empty()) {
      ASSERT_EQ(calendar.fired.back(), heap.fired.back())
          << where << " at pop " << calendar.fired.size();
    }
    ASSERT_EQ(calendar.queue.now(), heap.queue.now()) << where;
    ASSERT_EQ(calendar.queue.pending(), heap.queue.pending()) << where;
  }

  /// Pops both queues one event at a time until both are empty or
  /// `max_pops` ran, comparing after every pop; returns the pops made.
  std::size_t drain(std::size_t max_pops = std::numeric_limits<std::size_t>::max()) {
    std::size_t pops = 0;
    while (pops < max_pops) {
      const bool a = calendar.step();
      const bool b = heap.step();
      EXPECT_EQ(a, b);
      if (!a || !b) break;
      ++pops;
      expect_same("drain");
      if (::testing::Test::HasFatalFailure()) break;
      widths.push_back(calendar.queue.bucket_width());
    }
    return pops;
  }

  Driver<EventQueue<std::uint64_t>> calendar;
  Driver<test_support::HeapEventQueue<std::uint64_t>> heap;
  std::vector<double> widths;  // Calendar width after every pop.
};

/// A uniform in [0, 1) from (salt, id, k): the script's only randomness.
double hashed_uniform(std::uint64_t salt, std::uint64_t id, std::uint64_t k) {
  std::uint64_t state = salt * 0x9E3779B97F4A7C15ULL ^ (id << 8) ^ k;
  return static_cast<double>(common::splitmix64(state) >> 11) * 0x1.0p-53;
}

TEST(EventQueueDifferential, ExactTiesAndZeroDelayChildren) {
  // Times on a 0.25 grid, so most timestamps are shared by several events;
  // about a third of the children land at now() from inside the dispatch.
  for (std::uint64_t salt = 1; salt <= 4; ++salt) {
    Lockstep run{[salt](std::uint64_t id, std::size_t pending) {
      std::vector<double> offsets;
      if (id > 30'000) return offsets;
      const std::size_t children = pending < 400 ? 2 : (pending < 800 ? 1 : 0);
      for (std::size_t k = 0; k < children; ++k) {
        const double u = hashed_uniform(salt, id, k);
        offsets.push_back(u < 0.35 ? 0.0 : 0.25 * std::floor(u * 20.0));
      }
      return offsets;
    }};
    for (std::uint64_t i = 0; i < 200; ++i) {
      run.add(0.25 * std::floor(hashed_uniform(salt, i, 99) * 40.0));
    }
    EXPECT_GT(run.drain(), 30'000u) << "salt " << salt;
    EXPECT_TRUE(run.calendar.queue.empty());
  }
}

TEST(EventQueueDifferential, FarFutureEventsTakeTheOverflowHeap) {
  // Mostly sub-millisecond children plus a few 1e4-1e6 ms timers, which
  // land past the ring's reach; 1e15 and 1e300 go beyond the last
  // representable day and must still pop last, in order.
  for (std::uint64_t salt = 1; salt <= 3; ++salt) {
    Lockstep run{[salt](std::uint64_t id, std::size_t pending) {
      std::vector<double> offsets;
      if (id > 40'000) return offsets;
      const std::size_t children = pending < 1'000 ? 2 : 1;
      for (std::size_t k = 0; k < children; ++k) {
        const double u = hashed_uniform(salt, id, k);
        offsets.push_back(u < 0.03 ? 1.0e4 * std::pow(100.0, u / 0.03) : u * 0.5);
      }
      return offsets;
    }};
    run.add(1.0e300);
    run.add(1.0e15);
    run.add(1.0e300);
    for (std::uint64_t i = 0; i < 100; ++i) run.add(hashed_uniform(salt, i, 7));
    EXPECT_GT(run.drain(), 40'000u) << "salt " << salt;
    EXPECT_EQ(run.calendar.queue.now(), 1.0e300);
  }
}

TEST(EventQueueDifferential, BurstsRetuneTheWidthBothWays) {
  // Alternating phases: a dense burst (children 1e-3 ms apart, population
  // growing to ~4000) and a sparse decay (children ~50 ms apart, population
  // shrinking to a handful). Each doubling or halving re-derives the width,
  // so it must both grow and shrink along the way.
  Lockstep run{[](std::uint64_t id, std::size_t pending) {
    std::vector<double> offsets;
    const std::uint64_t phase = id / 8'000;
    if (phase >= 6) return offsets;
    const bool dense = phase % 2 == 0;
    const std::size_t children = dense ? (pending < 4'000 ? 2 : 1) : (pending > 8 ? 0 : 1);
    for (std::size_t k = 0; k < children; ++k) {
      const double u = hashed_uniform(11, id, k);
      offsets.push_back(dense ? 1.0e-3 * u : 50.0 * u);
    }
    return offsets;
  }};
  for (std::uint64_t i = 0; i < 10; ++i) run.add(0.001 * static_cast<double>(i));
  EXPECT_GT(run.drain(), 20'000u);
  bool grew = false;
  bool shrank = false;
  for (std::size_t i = 1; i < run.widths.size(); ++i) {
    grew = grew || run.widths[i] > run.widths[i - 1];
    shrank = shrank || run.widths[i] < run.widths[i - 1];
  }
  EXPECT_TRUE(grew);
  EXPECT_TRUE(shrank);
}

TEST(EventQueueDifferential, DrainToEmptyThenRefill) {
  Lockstep run{[](std::uint64_t id, std::size_t) {
    std::vector<double> offsets;
    if (id % 3 != 0 || id > 5'000) return offsets;
    offsets.push_back(hashed_uniform(5, id, 0) * 2.0);
    offsets.push_back(hashed_uniform(5, id, 1) < 0.5 ? 0.0 : 3.0);
    return offsets;
  }};
  for (int round = 0; round < 4; ++round) {
    const double base = run.calendar.queue.now();
    run.add(base);  // At the clock exactly.
    for (std::uint64_t i = 0; i < 300; ++i) {
      run.add(base + 10.0 * hashed_uniform(static_cast<std::uint64_t>(round), i, 3));
    }
    run.drain();
    ASSERT_TRUE(run.calendar.queue.empty());
    ASSERT_TRUE(run.heap.queue.empty());
    run.expect_same("after drain");
  }
}

// ------------------------------------------------- Closed-loop engine clients

struct SimFixture {
  LatencyMatrix matrix = net::small_synth(16, 5);
  quorum::MajorityQuorum system{6, 5};  // Q/U with t = 1.
  core::Placement placement = core::best_majority_placement(matrix, system).placement;
  std::vector<std::size_t> clients =
      representative_client_sites(matrix, system, placement, 4);
};

/// One closed-loop client per site, one replication, §3's 1 ms service.
EngineConfig closed_loop(double duration_ms, double warmup_ms) {
  EngineConfig config;
  config.closed_loop_clients = 1;
  config.duration_ms = duration_ms;
  config.warmup_ms = warmup_ms;
  config.replications = 1;
  return config;
}

EngineResult run(const SimFixture& f, const EngineConfig& config) {
  return run_engine(f.matrix, f.system, f.placement,
                    client_site_mask(f.matrix.size(), f.clients), config);
}

/// Mean utilization over the sites that host a server.
double mean_server_utilization(const SimFixture& f, const EngineResult& result) {
  const std::vector<std::size_t> support = f.placement.support_set();
  double total = 0.0;
  for (std::size_t site : support) total += result.site_utilization[site];
  return total / static_cast<double>(support.size());
}

TEST(ClosedLoop, DeterministicInSeed) {
  const SimFixture f;
  EngineConfig config = closed_loop(2000.0, 200.0);
  config.master_seed = 7;
  const EngineResult a = run(f, config);
  const EngineResult b = run(f, config);
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);  // Bitwise.
  EXPECT_EQ(a.completed, b.completed);
  config.master_seed = 8;
  const EngineResult c = run(f, config);
  EXPECT_NE(a.mean_response_ms, c.mean_response_ms);
}

TEST(ClosedLoop, ResponseAtLeastNetworkDelayPlusService) {
  const SimFixture f;
  const EngineConfig config = closed_loop(2000.0, 200.0);
  const EngineResult result = run(f, config);
  EXPECT_GT(result.completed, 0u);
  // Every request waits at least its network delay plus one service time.
  EXPECT_GE(result.mean_response_ms,
            result.mean_network_delay_ms + config.service_time_ms - 1e-9);
  EXPECT_GE(result.response.min(), result.replications[0].network.min() - 1e-9);
}

TEST(ClosedLoop, UnloadedSystemMatchesNetworkDelayClosely) {
  // One client, long RTTs: queueing is negligible, so response ~= network
  // delay + service.
  const SimFixture f;
  const EngineConfig config = closed_loop(3000.0, 300.0);
  const std::vector<std::size_t> one_client{f.clients[0]};
  const EngineResult result =
      run_engine(f.matrix, f.system, f.placement,
                 client_site_mask(f.matrix.size(), one_client), config);
  EXPECT_NEAR(result.mean_response_ms,
              result.mean_network_delay_ms + config.service_time_ms, 0.5);
}

TEST(ClosedLoop, ResponseGrowsWithClientCount) {
  const SimFixture f;
  EngineConfig config = closed_loop(3000.0, 300.0);
  config.master_seed = 11;
  const EngineResult light = run(f, config);
  config.closed_loop_clients = 25;
  const EngineResult heavy = run(f, config);
  EXPECT_GT(heavy.mean_response_ms, light.mean_response_ms);
  // Network delay distribution is load-independent (uniform quorum draws).
  EXPECT_NEAR(heavy.mean_network_delay_ms, light.mean_network_delay_ms,
              0.15 * light.mean_network_delay_ms);
  EXPECT_GT(mean_server_utilization(f, heavy), mean_server_utilization(f, light));
}

TEST(ClosedLoop, ThroughputConsistency) {
  // Little's law sanity: completed requests ~= clients * window / mean response.
  const SimFixture f;
  EngineConfig config = closed_loop(4000.0, 500.0);
  config.closed_loop_clients = 2;
  const EngineResult result = run(f, config);
  const double clients = static_cast<double>(f.clients.size() * config.closed_loop_clients);
  const double predicted = clients * config.duration_ms / result.mean_response_ms;
  EXPECT_NEAR(static_cast<double>(result.completed), predicted, 0.15 * predicted);
}

TEST(ClosedLoop, ClosestStrategyReducesNetworkDelay) {
  const SimFixture f;
  EngineConfig config = closed_loop(2000.0, 200.0);
  const EngineResult uniform = run(f, config);
  config.strategy = EngineStrategy::Closest;
  const EngineResult closest = run(f, config);
  EXPECT_LE(closest.mean_network_delay_ms, uniform.mean_network_delay_ms + 1e-9);
}

TEST(ClosedLoop, SingletonProtocol) {
  const LatencyMatrix m = net::small_synth(8, 9);
  const quorum::SingletonQuorum singleton;
  const core::Placement placement = core::singleton_placement(m);
  const std::vector<std::size_t> clients{0, 1, 2};
  const EngineResult result = run_engine(m, singleton, placement,
                                         client_site_mask(m.size(), clients),
                                         closed_loop(1000.0, 100.0));
  EXPECT_GT(result.completed, 0u);
}

TEST(ClosedLoop, ValidatesConfig) {
  const SimFixture f;
  EngineConfig config = closed_loop(-1.0, 0.0);
  EXPECT_THROW((void)run(f, config), std::invalid_argument);
  config.duration_ms = 100.0;
  EXPECT_THROW((void)run_engine(f.matrix, f.system, f.placement,
                                client_site_mask(f.matrix.size(), {}), config),
               std::invalid_argument);
  const std::vector<double> short_rates(f.matrix.size() - 1, 1.0);
  EXPECT_THROW((void)run_engine(f.matrix, f.system, f.placement, short_rates, config),
               std::invalid_argument);
  const std::vector<std::size_t> bad_site{99};
  EXPECT_THROW((void)client_site_mask(f.matrix.size(), bad_site), std::out_of_range);
}

// ------------------------------------------------------------ Client sites

TEST(ClientSites, ApproximateThePopulationAverage) {
  const SimFixture f;
  std::vector<double> delays(f.matrix.size());
  double total = 0.0;
  for (std::size_t v = 0; v < f.matrix.size(); ++v) {
    std::vector<double> values;
    core::fill_element_distances(f.matrix, f.placement, v, values);
    delays[v] = f.system.expected_max_uniform(values);
    total += delays[v];
  }
  const double average = total / static_cast<double>(f.matrix.size());

  const auto sites = representative_client_sites(f.matrix, f.system, f.placement, 4);
  ASSERT_EQ(sites.size(), 4u);
  double chosen_total = 0.0;
  for (std::size_t s : sites) chosen_total += delays[s];
  const double chosen_average = chosen_total / 4.0;
  // The chosen sites' average is closer to the population average than the
  // population spread.
  double worst_gap = 0.0;
  for (double d : delays) worst_gap = std::max(worst_gap, std::abs(d - average));
  EXPECT_LE(std::abs(chosen_average - average), worst_gap);
}

TEST(ClientSites, CountValidation) {
  const SimFixture f;
  EXPECT_THROW(
      (void)representative_client_sites(f.matrix, f.system, f.placement, 0),
      std::invalid_argument);
  EXPECT_THROW((void)representative_client_sites(f.matrix, f.system, f.placement,
                                                 f.matrix.size() + 1),
               std::invalid_argument);
  const auto all = representative_client_sites(f.matrix, f.system, f.placement,
                                               f.matrix.size());
  EXPECT_EQ(all.size(), f.matrix.size());
}

}  // namespace
}  // namespace qp::sim
