// Concurrency stress suites for common/thread_pool and the sim/engine
// replication fan-out — written to give ThreadSanitizer real interleavings
// to inspect (the `tsan` preset runs these; see tests/README.md "Static
// analysis & sanitizers"). Each test is also a plain correctness test, so
// the suite runs in every preset.
//
// Shapes covered, matching the pool's documented contract:
//   * nested parallel_for from inside a worker body (must run inline);
//   * concurrent parallel_for from several external threads (submit_mutex
//     serialization, caller participation);
//   * pool construction/teardown churn, including teardown racing a
//     submitter on another thread (the destructor drains in-flight jobs);
//   * exception propagation while other bodies still run;
//   * sim/engine replication fan-out: bit-identical results for any
//     thread count, including when the engine itself runs nested inside a
//     worker of the same pool.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "core/placement.hpp"
#include "net/latency_matrix.hpp"
#include "net/synthetic.hpp"
#include "quorum/majority.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace {

using qp::common::ThreadPool;

TEST(RaceStress, ConcurrentParallelForFromManyThreads) {
  // Several external threads hammer one pool at once; the pool runs one job
  // at a time (submit_mutex), each job's indices land exactly once in
  // caller-owned slots.
  ThreadPool pool{4};
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kIndices = 512;
  constexpr int kRounds = 25;
  std::vector<std::vector<std::uint32_t>> counts(
      kCallers, std::vector<std::uint32_t>(kIndices, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &counts, c] {
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(0, kIndices, [&counts, c](std::size_t i) { ++counts[c][i]; });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kIndices; ++i) {
      ASSERT_EQ(counts[c][i], static_cast<std::uint32_t>(kRounds))
          << "caller " << c << " index " << i;
    }
  }
}

constexpr std::size_t kOuter = 64;
constexpr std::size_t kInner = 32;

TEST(RaceStress, NestedParallelForRunsInlineAndCompletely) {
  for (std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    ThreadPool pool{threads};
    std::vector<std::uint32_t> cells(kOuter * kInner, 0);
    pool.parallel_for(0, kOuter, [&](std::size_t outer) {
      // Inner call re-enters the same pool from a worker (or the caller):
      // the contract says it degrades to inline serial execution.
      pool.parallel_for(0, kInner, [&cells, outer](std::size_t inner) {
        ++cells[outer * kInner + inner];
      });
    });
    ASSERT_EQ(std::accumulate(cells.begin(), cells.end(), 0u), kOuter * kInner);
    ASSERT_TRUE(std::all_of(cells.begin(), cells.end(),
                            [](std::uint32_t c) { return c == 1; }));
  }
}

TEST(RaceStress, TripleNestingStaysInline) {
  ThreadPool pool{4};
  std::atomic<std::uint32_t> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 4, [&](std::size_t) {
      pool.parallel_for(0, 2, [&](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(total.load(), 8u * 4u * 2u);
}

TEST(RaceStress, CallerParticipatesInTheWork) {
  // The calling thread is one of the workers: with long-enough bodies the
  // set of executing threads must never exceed the pool's size, and every
  // index runs exactly once.
  constexpr std::size_t kThreads = 4;
  ThreadPool pool{kThreads};
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  std::vector<std::uint32_t> ran(256, 0);
  pool.parallel_for(0, ran.size(), [&](std::size_t i) {
    ++ran[i];
    const std::lock_guard<std::mutex> lock{ids_mutex};
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ids.size(), kThreads);
  EXPECT_TRUE(std::all_of(ran.begin(), ran.end(), [](std::uint32_t c) { return c == 1; }));
}

TEST(RaceStress, TeardownRightAfterWork) {
  // Construct, run one fan-out, destruct immediately — repeatedly and for
  // several sizes. TSan watches the worker join against the last bodies.
  for (int round = 0; round < 40; ++round) {
    const std::size_t threads = 1 + static_cast<std::size_t>(round % 8);
    ThreadPool pool{threads};
    std::vector<std::uint32_t> ran(128, 0);
    pool.parallel_for(0, ran.size(), [&ran](std::size_t i) { ++ran[i]; });
    ASSERT_TRUE(
        std::all_of(ran.begin(), ran.end(), [](std::uint32_t c) { return c == 1; }));
    // Pool destroyed here, right after the job drained.
  }
}

TEST(RaceStress, TeardownWithoutAnyWork) {
  for (int round = 0; round < 40; ++round) {
    ThreadPool pool{1 + static_cast<std::size_t>(round % 8)};
    // Workers are parked at work_cv; the destructor must wake and join them.
  }
}

TEST(RaceStress, TeardownWhileAnotherThreadSubmits) {
  // The destructor serializes behind in-flight parallel_for calls: a job
  // submitted from another thread either completes fully before shutdown or
  // (if it arrives after destruction began) never started — we only submit
  // before destruction here, so it must complete fully.
  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint32_t> ran(512, 0);
    std::atomic<bool> submitted{false};
    auto pool = std::make_unique<ThreadPool>(4);
    std::thread submitter{[&] {
      pool->parallel_for(0, ran.size(), [&](std::size_t i) {
        submitted.store(true, std::memory_order_release);
        ++ran[i];
      });
    }};
    // Spin until the job is demonstrably in flight, then destroy the pool
    // concurrently with it.
    while (!submitted.load(std::memory_order_acquire)) std::this_thread::yield();
    pool.reset();
    submitter.join();
    ASSERT_TRUE(
        std::all_of(ran.begin(), ran.end(), [](std::uint32_t c) { return c == 1; }));
  }
}

TEST(RaceStress, ExceptionFromOneBodyStillRunsTheRest) {
  ThreadPool pool{4};
  std::vector<std::uint32_t> ran(256, 0);
  EXPECT_THROW(
      pool.parallel_for(0, ran.size(),
                        [&ran](std::size_t i) {
                          ++ran[i];
                          if (i == 17) throw std::runtime_error{"body 17"};
                        }),
      std::runtime_error);
  // Contract: remaining indices still run, the first error is rethrown.
  EXPECT_TRUE(std::all_of(ran.begin(), ran.end(), [](std::uint32_t c) { return c == 1; }));
  // And the pool stays usable afterwards.
  std::atomic<std::uint32_t> after{0};
  pool.parallel_for(0, 64, [&](std::size_t) { after.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(after.load(), 64u);
}

// --- sim/engine replication fan-out ---------------------------------------

qp::sim::EngineConfig stress_engine_config() {
  qp::sim::EngineConfig config;
  config.service_time_ms = 0.5;
  config.service_model = qp::sim::ServiceModel::Exponential;
  config.strategy = qp::sim::EngineStrategy::Closest;
  config.warmup_ms = 20.0;
  config.duration_ms = 150.0;
  config.replications = 12;  // More replications than threads: real fan-out.
  config.master_seed = 0xace5'5eedULL;
  return config;
}

/// Identity one-to-one placement of a |U| = n universe onto the first n sites.
qp::core::Placement identity_placement(std::size_t n) {
  qp::core::Placement placement;
  placement.site_of.resize(n);
  std::iota(placement.site_of.begin(), placement.site_of.end(), std::size_t{0});
  return placement;
}

TEST(RaceStress, EngineFanOutBitIdenticalAcrossThreadCounts) {
  const qp::net::LatencyMatrix matrix = qp::net::small_synth(9, /*seed=*/21);
  const qp::quorum::MajorityQuorum system{9, 5};
  const qp::core::Placement placement = identity_placement(9);
  const std::vector<double> rates(9, 0.08);
  const qp::sim::EngineConfig base = stress_engine_config();

  qp::sim::EngineConfig serial = base;
  qp::common::ThreadPool reference_pool{1};
  serial.pool = &reference_pool;
  const qp::sim::EngineResult expected =
      qp::sim::run_engine(matrix, system, placement, rates, serial);

  for (std::size_t threads : {2u, 4u, 8u, 16u}) {
    qp::common::ThreadPool pool{threads};
    qp::sim::EngineConfig config = base;
    config.pool = &pool;
    const qp::sim::EngineResult result =
        qp::sim::run_engine(matrix, system, placement, rates, config);
    // Bit-identical, not approximately equal: replication r derives its rng
    // stream from the master seed alone and results reduce in serial order.
    EXPECT_EQ(result.mean_response_ms, expected.mean_response_ms) << threads;
    EXPECT_EQ(result.mean_network_delay_ms, expected.mean_network_delay_ms) << threads;
    EXPECT_EQ(result.p99_ms, expected.p99_ms) << threads;
    EXPECT_EQ(result.completed, expected.completed) << threads;
    EXPECT_EQ(result.failed, expected.failed) << threads;
    ASSERT_EQ(result.site_utilization.size(), expected.site_utilization.size());
    for (std::size_t w = 0; w < result.site_utilization.size(); ++w) {
      EXPECT_EQ(result.site_utilization[w], expected.site_utilization[w])
          << threads << " site " << w;
    }
  }

  // Closed-loop clients recovering from an outage by immediate retries: the
  // re-issue on completion and on abandonment runs inside each replication.
  qp::sim::EngineConfig closed = serial;
  closed.closed_loop_clients = 6;
  closed.strategy = qp::sim::EngineStrategy::Balanced;
  closed.warmup_ms = 100.0;
  closed.duration_ms = 1'000.0;
  closed.retry.timeout_ms = 300.0;
  closed.outages = {{placement.site_of[0], 300.0, 800.0}};
  const qp::sim::EngineResult closed_expected =
      qp::sim::run_engine(matrix, system, placement, rates, closed);
  EXPECT_GT(closed_expected.retries, 0u);
  for (std::size_t threads : {2u, 4u, 8u, 16u}) {
    qp::common::ThreadPool pool{threads};
    closed.pool = &pool;
    const qp::sim::EngineResult result =
        qp::sim::run_engine(matrix, system, placement, rates, closed);
    EXPECT_EQ(result.mean_response_ms, closed_expected.mean_response_ms) << threads;
    EXPECT_EQ(result.completed, closed_expected.completed) << threads;
    EXPECT_EQ(result.abandoned, closed_expected.abandoned) << threads;
    EXPECT_EQ(result.retries, closed_expected.retries) << threads;
    EXPECT_EQ(result.site_utilization, closed_expected.site_utilization) << threads;
  }
}

TEST(RaceStress, EngineFaultRetryFailoverBitIdenticalAcrossThreadCounts) {
  // The retry/failover layer adds rng draws (backoff jitter) and per-attempt
  // state on top of the fan-out; with a dense injected fault schedule the
  // whole recovery pipeline — timeouts, suspicion, re-choice, abandonment —
  // must still reduce bit-identically for any thread count.
  const qp::net::LatencyMatrix matrix = qp::net::small_synth(9, /*seed=*/21);
  const qp::quorum::MajorityQuorum system{9, 5};
  const qp::core::Placement placement = identity_placement(9);
  const std::vector<double> rates(9, 0.08);
  qp::sim::EngineConfig base = stress_engine_config();
  qp::sim::FaultInjectorConfig fault;
  fault.seed = 0xfa17'5eedULL;
  fault.horizon_ms = base.warmup_ms + base.duration_ms;
  fault.site = qp::sim::FaultProcess::for_down_probability(0.25, 30.0);
  base.outages = qp::sim::FaultInjector{fault}.schedule(9);
  base.retry.timeout_ms = 60.0;
  base.retry.max_attempts = 3;
  base.retry.backoff_base_ms = 5.0;
  base.retry.jitter_frac = 0.5;

  for (qp::sim::FailoverMode mode :
       {qp::sim::FailoverMode::Suspicion, qp::sim::FailoverMode::Oracle}) {
    base.failover = mode;
    qp::sim::EngineConfig serial = base;
    qp::common::ThreadPool reference_pool{1};
    serial.pool = &reference_pool;
    const qp::sim::EngineResult expected =
        qp::sim::run_engine(matrix, system, placement, rates, serial);
    EXPECT_GT(expected.retries, 0u);

    for (std::size_t threads : {2u, 4u, 8u, 16u}) {
      qp::common::ThreadPool pool{threads};
      qp::sim::EngineConfig config = base;
      config.pool = &pool;
      const qp::sim::EngineResult result =
          qp::sim::run_engine(matrix, system, placement, rates, config);
      EXPECT_EQ(result.mean_response_ms, expected.mean_response_ms) << threads;
      EXPECT_EQ(result.p99_ms, expected.p99_ms) << threads;
      EXPECT_EQ(result.degraded_p99_ms, expected.degraded_p99_ms) << threads;
      EXPECT_EQ(result.completed, expected.completed) << threads;
      EXPECT_EQ(result.failed, expected.failed) << threads;
      EXPECT_EQ(result.abandoned, expected.abandoned) << threads;
      EXPECT_EQ(result.retries, expected.retries) << threads;
      EXPECT_EQ(result.stale_replies, expected.stale_replies) << threads;
      EXPECT_EQ(result.unavailability, expected.unavailability) << threads;
      EXPECT_EQ(result.retried_response.mean(), expected.retried_response.mean())
          << threads;
    }
  }
}

TEST(RaceStress, EngineRunsNestedInsideParallelFor) {
  // A figure sweep parallelizes over points and each point runs the engine:
  // the nested fan-out must degrade to inline execution, still producing
  // the exact same result as a top-level run.
  const qp::net::LatencyMatrix matrix = qp::net::small_synth(7, /*seed=*/22);
  const qp::quorum::MajorityQuorum system{7, 4};
  const qp::core::Placement placement = identity_placement(7);
  const std::vector<double> rates(7, 0.05);
  qp::sim::EngineConfig config = stress_engine_config();
  config.replications = 4;

  qp::common::ThreadPool pool{4};
  config.pool = &pool;
  const qp::sim::EngineResult expected =
      qp::sim::run_engine(matrix, system, placement, rates, config);

  std::vector<double> means(8, 0.0);
  pool.parallel_for(0, means.size(), [&](std::size_t point) {
    means[point] =
        qp::sim::run_engine(matrix, system, placement, rates, config).mean_response_ms;
  });
  for (double mean : means) EXPECT_EQ(mean, expected.mean_response_ms);
}

}  // namespace
