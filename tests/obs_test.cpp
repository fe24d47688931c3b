// The observability layer (src/obs): histogram bucketing and cross-shard
// merge, registration-ordered deterministic export, the invariant that
// metrics and probes never perturb computed results (bitwise parity with
// observability on, off, and at any thread count across the instrumented
// layers), Chrome trace-event output shape, and the disabled-mode
// zero-allocation contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/iterative.hpp"
#include "core/local_search.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "net/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "sim/engine.hpp"

// --- global operator new instrumentation (for the zero-allocation test) ---
// Flag-gated so the counter costs one relaxed load per allocation and the
// rest of the suite is unaffected. The plain and nothrow forms are replaced
// together (std::stable_sort's buffer comes from the nothrow one, and is
// freed by the replaced operator delete). All of them route through
// malloc/free, so the compiler's new/delete-pairing heuristic (which cannot
// see replaced global operators as a matched pair) is a false positive here.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace qp::obs {
namespace {

/// Re-enables observability and clears accumulated state when a test ends,
/// so suites are order-independent.
struct ObsGuard {
  ObsGuard() {
    set_enabled(true);
    reset();
  }
  ~ObsGuard() {
    set_enabled(true);
    reset();
  }
};

std::uint64_t counter_value(const std::vector<MetricSnapshot>& snap,
                            const std::string& name) {
  for (const MetricSnapshot& m : snap) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "metric not found: " << name;
  return 0;
}

const MetricSnapshot* find_metric(const std::vector<MetricSnapshot>& snap,
                                  const std::string& name) {
  for (const MetricSnapshot& m : snap) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// --- bucketing ------------------------------------------------------------

TEST(ObsHistogram, BucketIndexIsAPureLogFunction) {
  // Non-positives and NaN land in bucket 0.
  EXPECT_EQ(bucket_index(0.0), 0u);
  EXPECT_EQ(bucket_index(-1.0), 0u);
  EXPECT_EQ(bucket_index(std::numeric_limits<double>::quiet_NaN()), 0u);
  // Every positive value falls strictly below its bucket's upper bound and
  // at/above the previous bucket's.
  for (double value : {1e-8, 1e-3, 0.5, 1.0, 1.5, 2.0, 10.0, 1e3, 1e9, 1e300}) {
    const std::size_t b = bucket_index(value);
    ASSERT_GE(b, 1u);
    ASSERT_LT(b, kHistogramBuckets);
    EXPECT_LT(value, bucket_upper_bound(b)) << value;
    if (b > 1 && b < kHistogramBuckets - 1) {
      EXPECT_GE(value, bucket_upper_bound(b - 1)) << value;
    }
  }
  // Bucket boundaries are powers of two; a value on a boundary opens the
  // next bucket (half-open intervals).
  EXPECT_EQ(bucket_index(2.0), bucket_index(3.9));
  EXPECT_NE(bucket_index(2.0), bucket_index(4.0));
  // The overflow bucket has an infinite upper bound.
  EXPECT_EQ(bucket_index(std::numeric_limits<double>::infinity()),
            kHistogramBuckets - 1);
  EXPECT_TRUE(std::isinf(bucket_upper_bound(kHistogramBuckets - 1)));
  EXPECT_EQ(bucket_upper_bound(0), 0.0);
}

TEST(ObsHistogram, RecordsCountMinMaxAndBuckets) {
  const ObsGuard guard;
  const Histogram h = histogram("obs_test.h.basic");
  h.record(1.0);
  h.record(2.5);
  h.record(0.25);
  h.record(-3.0);  // Bucket 0, still counted; min folds to the true minimum.
  const std::vector<MetricSnapshot> snap = snapshot();
  const MetricSnapshot* m = find_metric(snap, "obs_test.h.basic");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::Histogram);
  EXPECT_EQ(m->histogram.count, 4u);
  EXPECT_EQ(m->histogram.min, -3.0);
  EXPECT_EQ(m->histogram.max, 2.5);
  const std::uint64_t total = std::accumulate(m->histogram.buckets.begin(),
                                              m->histogram.buckets.end(),
                                              std::uint64_t{0});
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(m->histogram.buckets[0], 1u);  // The -3.0 record.
  EXPECT_EQ(m->histogram.buckets[bucket_index(1.0)], 1u);
  // Percentiles come back as bucket upper bounds, clamped to the max.
  EXPECT_GE(m->histogram.percentile(50.0), 0.25);
  EXPECT_LE(m->histogram.percentile(99.0), 2.5);
}

TEST(ObsHistogram, MergeAcrossThreadsMatchesSerialTotals) {
  const ObsGuard guard;
  const Histogram h = histogram("obs_test.h.merge");
  const Counter c = counter("obs_test.c.merge");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1'000;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          h.record(0.5 * t + 0.001 * i);
          c.add(2);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  // Exited threads retire their shards; the merged totals must equal the
  // serial sum regardless of retirement order.
  const std::vector<MetricSnapshot> snap = snapshot();
  const MetricSnapshot* m = find_metric(snap, "obs_test.h.merge");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->histogram.count, std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(m->histogram.min, 0.0);
  EXPECT_EQ(m->histogram.max, 0.5 * (kThreads - 1) + 0.001 * (kPerThread - 1));
  EXPECT_EQ(counter_value(snap, "obs_test.c.merge"),
            std::uint64_t{kThreads} * kPerThread * 2);
}

// --- registration and export ---------------------------------------------

TEST(ObsRegistry, SameNameReturnsSameMetricAndKindMismatchThrows) {
  const ObsGuard guard;
  const Counter a = counter("obs_test.reg.same");
  const Counter b = counter("obs_test.reg.same");
  a.add(1);
  b.add(2);
  EXPECT_EQ(counter_value(snapshot(), "obs_test.reg.same"), 3u);
  EXPECT_THROW((void)gauge("obs_test.reg.same"), std::logic_error);
  EXPECT_THROW((void)histogram("obs_test.reg.same"), std::logic_error);
}

TEST(ObsRegistry, ExportIsRegistrationOrderedAndDeterministic) {
  const ObsGuard guard;
  // Registration order (not name order) dictates export order.
  (void)counter("obs_test.order.zz");
  (void)counter("obs_test.order.aa");
  (void)gauge("obs_test.order.mm");
  const std::vector<MetricSnapshot> snap = snapshot();
  std::size_t zz = snap.size(), aa = snap.size(), mm = snap.size();
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (snap[i].name == "obs_test.order.zz") zz = i;
    if (snap[i].name == "obs_test.order.aa") aa = i;
    if (snap[i].name == "obs_test.order.mm") mm = i;
  }
  ASSERT_LT(zz, snap.size());
  EXPECT_LT(zz, aa);
  EXPECT_LT(aa, mm);
  // Two exports at a quiescent point are byte-identical.
  std::ostringstream json1, json2, csv1, csv2;
  export_json(json1);
  export_json(json2);
  export_csv(csv1);
  export_csv(csv2);
  EXPECT_EQ(json1.str(), json2.str());
  EXPECT_EQ(csv1.str(), csv2.str());
  EXPECT_NE(json1.str().find("\"qp_obs_version\""), std::string::npos);
  // CSV header + one row per metric.
  EXPECT_NE(csv1.str().find("name,kind,value"), std::string::npos);
}

TEST(ObsRegistry, GaugeMergesByMaxAcrossShards) {
  const ObsGuard guard;
  const Gauge g = gauge("obs_test.g.max");
  g.set(3.0);
  std::thread([&] { g.set(7.0); }).join();
  std::thread([&] { g.set(5.0); }).join();
  const std::vector<MetricSnapshot> snap = snapshot();
  const MetricSnapshot* m = find_metric(snap, "obs_test.g.max");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->gauge_set);
  EXPECT_EQ(m->gauge_value, 7.0);
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  const ObsGuard guard;
  const Counter c = counter("obs_test.reset.c");
  c.add(41);
  reset();
  EXPECT_EQ(counter_value(snapshot(), "obs_test.reset.c"), 0u);
  c.add(1);
  EXPECT_EQ(counter_value(snapshot(), "obs_test.reset.c"), 1u);
}

TEST(ObsRegistry, DisabledRecordingIsDropped) {
  const ObsGuard guard;
  const Counter c = counter("obs_test.disabled.c");
  set_enabled(false);
  EXPECT_FALSE(enabled());
  c.add(100);
  set_enabled(true);
  c.add(1);
  EXPECT_EQ(counter_value(snapshot(), "obs_test.disabled.c"), 1u);
}

// --- the observe-never-perturb invariant ----------------------------------

core::LocalSearchResult run_search(std::size_t threads) {
  const net::LatencyMatrix m = net::small_synth(24, 5);
  const quorum::GridQuorum grid{3};
  // A deliberately poor spread-out start so the search takes many moves.
  std::vector<std::size_t> sites(9);
  for (std::size_t i = 0; i < sites.size(); ++i) sites[i] = 24 - 1 - i * 2;
  core::LocalSearchOptions options;
  options.threads = threads;
  return core::local_search_placement(m, grid, core::Placement{sites}, options);
}

TEST(ObsParity, LocalSearchBitwiseIdenticalOnOffAndThreaded) {
  const ObsGuard guard;
  set_enabled(true);
  const core::LocalSearchResult on1 = run_search(1);
  const core::LocalSearchResult on4 = run_search(4);
  set_enabled(false);
  const core::LocalSearchResult off1 = run_search(1);
  const core::LocalSearchResult off16 = run_search(16);
  for (const core::LocalSearchResult* r : {&on4, &off1, &off16}) {
    EXPECT_EQ(on1.objective, r->objective);  // Bitwise: EQ on doubles.
    EXPECT_EQ(on1.moves, r->moves);
    EXPECT_EQ(on1.placement.site_of, r->placement.site_of);
  }
}

core::IterativeResult run_iterative() {
  const net::LatencyMatrix m = net::small_synth(16, 23);
  const quorum::GridQuorum grid{2};
  const std::vector<double> caps(m.size(), 0.8);
  core::IterativeOptions options;
  options.anchor_candidates = {0, 1, 2, 3};
  return core::iterative_placement(m, grid, caps, core::LoadAwareObjective{5.0}, options);
}

TEST(ObsParity, IterativePlacementBitwiseIdenticalOnOff) {
  // Covers the many-to-one placement LP (warm-chained across anchors), the
  // warm-started strategy LP of every round, and the strategy LP's routing.
  const ObsGuard guard;
  set_enabled(true);
  reset();
  const core::IterativeResult on = run_iterative();
  const std::vector<MetricSnapshot> snap = snapshot();
  set_enabled(false);
  const core::IterativeResult off = run_iterative();

  EXPECT_EQ(on.placement.site_of, off.placement.site_of);
  EXPECT_EQ(on.strategy.probability, off.strategy.probability);  // Bitwise.
  EXPECT_EQ(on.avg_response, off.avg_response);
  EXPECT_EQ(on.avg_network_delay, off.avg_network_delay);
  ASSERT_EQ(on.history.size(), off.history.size());
  for (std::size_t i = 0; i < on.history.size(); ++i) {
    EXPECT_EQ(on.history[i].response_after_placement, off.history[i].response_after_placement);
    EXPECT_EQ(on.history[i].response_after_strategy, off.history[i].response_after_strategy);
    EXPECT_EQ(on.history[i].max_capacity_violation, off.history[i].max_capacity_violation);
    EXPECT_EQ(on.history[i].lp_iterations, off.history[i].lp_iterations);
  }

  // One placement LP per anchor per round; every anchor after a round's
  // first starts from its predecessor's basis.
  const std::uint64_t rounds = on.history.size();
  EXPECT_EQ(counter_value(snap, "core.manytoone.lp_solves"), 4 * rounds);
  EXPECT_EQ(counter_value(snap, "core.manytoone.warm_starts"), 3 * rounds);
  EXPECT_GT(counter_value(snap, "core.manytoone.lp_iterations"), 0u);
  EXPECT_LE(counter_value(snap, "core.manytoone.warm_stalls"),
            counter_value(snap, "core.manytoone.warm_starts"));
  // Phase-1 pivots are a part of the solver's pivots.
  EXPECT_LE(counter_value(snap, "lp.revised.phase1_iterations"),
            counter_value(snap, "lp.revised.iterations"));

  // Every strategy LP is solved by the revised simplex.
  EXPECT_GT(counter_value(snap, "lp.strategy.solves"), 0u);
  EXPECT_EQ(counter_value(snap, "lp.strategy.solver_revised"),
            counter_value(snap, "lp.strategy.solves"));
}

core::StrategyLpResult run_capped_strategy_lp() {
  const net::LatencyMatrix m = net::small_synth(24, 31);
  const quorum::GridQuorum grid{3};
  core::Placement placement;
  for (std::size_t u = 0; u < grid.universe_size(); ++u) placement.site_of.push_back(u);
  std::vector<double> caps = core::site_loads_balanced(grid, placement, m.size());
  for (double& cap : caps) cap = cap > 0.0 ? 1.02 * cap : 1.0;
  return core::optimize_access_strategy(m, grid, placement, caps);
}

TEST(ObsParity, CrashStartedStrategyLpBitwiseIdenticalOnOff) {
  // The closest-quorum crash overloads the binding caps, so phase 1 runs;
  // its counter, like every other, must not perturb the solve.
  const ObsGuard guard;
  set_enabled(true);
  reset();
  const core::StrategyLpResult on = run_capped_strategy_lp();
  const std::vector<MetricSnapshot> snap = snapshot();
  set_enabled(false);
  const core::StrategyLpResult off = run_capped_strategy_lp();

  ASSERT_EQ(on.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(on.status, off.status);
  EXPECT_EQ(on.avg_network_delay, off.avg_network_delay);  // Bitwise.
  EXPECT_EQ(on.strategy.probability, off.strategy.probability);
  EXPECT_EQ(on.lp_iterations, off.lp_iterations);
  EXPECT_EQ(on.basis.basic, off.basis.basic);

  const std::uint64_t phase1 = counter_value(snap, "lp.revised.phase1_iterations");
  EXPECT_EQ(counter_value(snap, "lp.revised.iterations"), on.lp_iterations);
  EXPECT_GT(phase1, 0u);
  EXPECT_LT(phase1, on.lp_iterations);
}

sim::EngineResult run_small_engine(common::ThreadPool* pool, double probe_ms) {
  const net::LatencyMatrix m = net::small_synth(16, 5);
  const quorum::MajorityQuorum system{6, 5};
  const core::Placement placement =
      core::best_majority_placement(m, system).placement;
  const std::vector<double> load =
      core::site_loads_balanced(system, placement, m.size());
  const std::vector<double> rates = sim::scale_rates_to_peak_utilization(
      std::vector<double>(m.size(), 1.0), load, 1.0, 0.5);
  sim::EngineConfig config;
  config.warmup_ms = 200.0;
  config.duration_ms = 1'200.0;
  config.replications = 3;
  config.master_seed = 17;
  config.pool = pool;
  config.probe_interval_ms = probe_ms;
  return sim::run_engine(m, system, placement, rates, config);
}

void expect_engine_identical(const sim::EngineResult& a, const sim::EngineResult& b) {
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.site_utilization, b.site_utilization);
  ASSERT_EQ(a.replications.size(), b.replications.size());
  for (std::size_t r = 0; r < a.replications.size(); ++r) {
    EXPECT_EQ(a.replications[r].response_samples, b.replications[r].response_samples);
  }
}

TEST(ObsParity, EngineBitwiseIdenticalOnOffThreadedAndProbed) {
  const ObsGuard guard;
  common::ThreadPool serial{1};
  common::ThreadPool wide{4};
  set_enabled(true);
  const sim::EngineResult on = run_small_engine(&serial, 0.0);
  const sim::EngineResult on_wide = run_small_engine(&wide, 0.0);
  const sim::EngineResult on_probed = run_small_engine(&wide, 100.0);
  set_enabled(false);
  const sim::EngineResult off = run_small_engine(&serial, 0.0);
  const sim::EngineResult off_probed = run_small_engine(&serial, 100.0);
  expect_engine_identical(on, on_wide);
  expect_engine_identical(on, on_probed);
  expect_engine_identical(on, off);
  expect_engine_identical(on, off_probed);
  // Probing itself is independent of QP_OBS and fills the time series.
  EXPECT_TRUE(on.replications[0].probes.empty());
  ASSERT_FALSE(on_probed.replications[0].probes.empty());
  ASSERT_FALSE(off_probed.replications[0].probes.empty());
  ASSERT_EQ(on_probed.replications[0].probes.size(),
            off_probed.replications[0].probes.size());
  const sim::EngineProbe& p = on_probed.replications[0].probes.front();
  EXPECT_EQ(p.t_ms, 200.0);
  EXPECT_GE(p.issued, p.completed + p.failed + p.abandoned);
}

TEST(ObsParity, EngineMetricsMatchEngineTotals) {
  const ObsGuard guard;
  set_enabled(true);
  reset();
  common::ThreadPool serial{1};
  const sim::EngineResult result = run_small_engine(&serial, 0.0);
  const std::vector<MetricSnapshot> snap = snapshot();
  EXPECT_EQ(counter_value(snap, "sim.engine.requests_issued"), result.issued);
  EXPECT_EQ(counter_value(snap, "sim.engine.requests_completed"), result.completed);
  const MetricSnapshot* h = find_metric(snap, "sim.engine.response_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->histogram.count, result.completed);
}

TEST(ObsParity, TimeseriesCsvHasHeaderAndOneRowPerProbe) {
  const ObsGuard guard;
  common::ThreadPool serial{1};
  const sim::EngineResult probed = run_small_engine(&serial, 250.0);
  std::ostringstream out;
  sim::write_engine_timeseries_csv(probed, out);
  const std::string csv = out.str();
  std::size_t rows = 0;
  for (char ch : csv) rows += ch == '\n' ? 1 : 0;
  std::size_t probes = 0;
  for (const sim::ReplicationResult& r : probed.replications) probes += r.probes.size();
  EXPECT_EQ(rows, probes + 1);  // Header + one row per probe.
  EXPECT_EQ(csv.rfind("replication,t_ms,busy_sites", 0), 0u);
}

// --- tracing --------------------------------------------------------------

TEST(ObsTrace, EmitsWellFormedChromeTraceJson) {
  const std::string path =
      testing::TempDir() + "/qp_obs_trace_test.json";
  ASSERT_TRUE(start_trace(path));
  EXPECT_TRUE(trace_enabled());
  {
    QP_TRACE_SPAN("obs_test.outer");
    { QP_TRACE_SPAN("obs_test.inner"); }
  }
  std::thread([] {
    QP_TRACE_SPAN("obs_test.worker");
    trace_flush_current_thread();
  }).join();
  stop_trace();
  EXPECT_FALSE(trace_enabled());

  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();
  // Array-format trace: opens with '[', closes with ']' (stop_trace wrote
  // the tail), and carries our spans as complete ("ph":"X") events.
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front(), '[');
  EXPECT_NE(trace.find_last_of(']'), std::string::npos);
  for (const char* name : {"obs_test.outer", "obs_test.inner", "obs_test.worker"}) {
    EXPECT_NE(trace.find(std::string{"\"name\":\""} + name + "\""),
              std::string::npos)
        << name;
  }
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ts\""), std::string::npos);
  EXPECT_NE(trace.find("\"dur\""), std::string::npos);
  // Balanced braces — every event object closes.
  std::ptrdiff_t depth = 0;
  for (char ch : trace) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path.c_str());
}

TEST(ObsTrace, SecondStartWhileActiveFails) {
  const std::string path = testing::TempDir() + "/qp_obs_trace_test2.json";
  ASSERT_TRUE(start_trace(path));
  EXPECT_FALSE(start_trace(path));
  stop_trace();
  std::remove(path.c_str());
}

// --- disabled-mode cost ---------------------------------------------------

TEST(ObsCost, DisabledRecordingAllocatesNothing) {
  const ObsGuard guard;
  // Register and touch once while enabled so shards/registry are warm, and
  // poke the trace gate so its lazy sink/env-check init happens up front.
  const Counter c = counter("obs_test.cost.c");
  const Histogram h = histogram("obs_test.cost.h");
  c.add();
  h.record(1.0);
  { TraceSpan warm{"obs_test.cost.warm"}; }
  set_enabled(false);
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    c.add();
    h.record(static_cast<double>(i));
    TraceSpan span{"obs_test.cost.span"};  // Tracing off: no clock, no alloc.
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u);
  // And the enabled steady-state path (shards already grown) stays
  // allocation-free too: recording is a predicated thread-local store.
  set_enabled(true);
  c.add();
  h.record(0.5);
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    c.add();
    h.record(static_cast<double>(i));
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace qp::obs
