// Process-wide observability metrics: named counters, gauges, and
// log-bucketed latency histograms, recorded through thread-local shards.
//
// Design constraints (this layer observes, it never perturbs):
//   * Recording is a predicated thread-local increment: one relaxed
//     atomic-ref load+store on a slot only the owning thread writes. The
//     hot path never takes a lock; registration, shard growth, export, and
//     reset serialize on the registry mutex.
//   * All merged quantities are order-independent — counters and histogram
//     buckets sum 64-bit integers, gauges and histogram min/max merge by
//     max/min — so exported values are identical for any thread count and
//     any thread-retirement order. Shards of exited threads retire into an
//     integer accumulator; export walks metrics in registration order.
//   * Compiled to true no-ops when the build defines QP_OBS=0 (the CMake
//     QP_OBS cache option); gated at runtime by the QP_OBS environment
//     variable (unset or anything but "0" = on) or set_enabled().
//   * Nothing here feeds back into algorithm state: results are bitwise
//     identical with observability on, off, and at any thread count
//     (tests/obs_test.cpp enforces this across the instrumented layers).
//
// Usage: register handles once (namespace-scope statics in the .cpp being
// instrumented — registration order is static-init order, stable per
// binary), record through them in the hot path:
//
//     namespace {
//     const obs::Counter c_moves = obs::counter("core.local_search.moves");
//     const obs::Histogram h_wait = obs::histogram("common.thread_pool.wait_ms");
//     }
//     ...
//     c_moves.add();
//     h_wait.record(elapsed_ms);
//
// Export: export_json (registration-ordered), snapshot()
// for programmatic access, reset() to zero everything (tests, per-figure
// runs). When the QP_OBS_EXPORT environment variable names a file, the
// registry writes the JSON export there at process exit — bench/run_all.sh
// --metrics drops one such file per figure binary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace qp::obs {

// The compile-time gate: -DQP_OBS=0 turns every handle into an empty
// inline (no registry, no shards, no branches); any other value — or no
// definition at all — compiles the instrumentation in.
#if defined(QP_OBS) && (QP_OBS + 0) == 0
inline constexpr bool kCompiled = false;
#else
inline constexpr bool kCompiled = true;
#endif

/// Log-bucketed histogram resolution: bucket 0 holds non-positive values,
/// buckets 1..62 hold [2^(i-22), 2^(i-21)) — sub-microsecond through ~2^41
/// ms when the recorded unit is milliseconds — and bucket 63 overflows.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Bucket of `value` (pure function of the double, so bucket counts are
/// reproducible everywhere).
// qp-lint: allow(test-only-export) -- the histogram_record bucket rule, pinned by tests
[[nodiscard]] std::size_t bucket_index(double value) noexcept;
/// Exclusive upper bound of `bucket` (0.0 for bucket 0, +inf for the
/// overflow bucket).
[[nodiscard]] double bucket_upper_bound(std::size_t bucket) noexcept;

namespace detail {
void counter_add(std::uint32_t id, std::uint64_t n) noexcept;
void gauge_set(std::uint32_t id, double value) noexcept;
void histogram_record(std::uint32_t id, double value) noexcept;
}  // namespace detail

/// Monotonic event count; shard merge sums.
class Counter {
 public:
  constexpr Counter() = default;
  void add(std::uint64_t n = 1) const noexcept {
    if constexpr (kCompiled) detail::counter_add(id_, n);
  }

 private:
  friend Counter counter(std::string_view name);
  explicit constexpr Counter(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_ = 0;
};

/// Last-set level per shard; the merged export takes the maximum across
/// shards (order-independent — use gauges for high-water marks and
/// configuration levels, not for racing last-write-wins state).
class Gauge {
 public:
  constexpr Gauge() = default;
  void set(double value) const noexcept {
    if constexpr (kCompiled) detail::gauge_set(id_, value);
  }

 private:
  friend Gauge gauge(std::string_view name);
  explicit constexpr Gauge(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_ = 0;
};

/// Log-bucketed value distribution (count, min, max, 64 buckets); merge
/// sums buckets and folds min/max.
class Histogram {
 public:
  constexpr Histogram() = default;
  void record(double value) const noexcept {
    if constexpr (kCompiled) detail::histogram_record(id_, value);
  }

 private:
  friend Histogram histogram(std::string_view name);
  explicit constexpr Histogram(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_ = 0;
};

/// Registers (or looks up) a metric. Re-registration under the same name
/// returns the existing handle; the same name with a different kind throws
/// std::logic_error. Registration order is export order.
[[nodiscard]] Counter counter(std::string_view name);
[[nodiscard]] Gauge gauge(std::string_view name);
[[nodiscard]] Histogram histogram(std::string_view name);

/// The runtime switch. Initialized from the QP_OBS environment variable on
/// first use ("0" = off, everything else = on); set_enabled overrides it
/// (tests and the bench overhead guard toggle it mid-process).
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

enum class MetricKind { Counter, Gauge, Histogram };

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double min = 0.0;  // 0 when count == 0.
  double max = 0.0;
  std::vector<std::uint64_t> buckets;  // kHistogramBuckets entries.
  /// Upper-bound estimate of the p-th percentile (p in [0, 100]) from the
  /// bucket counts: the upper bound of the bucket containing that rank
  /// (`max` for the overflow bucket; 0 when empty).
  [[nodiscard]] double percentile(double p) const noexcept;
};

struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t value = 0;     // Counter.
  double gauge_value = 0.0;    // Gauge (max across shards; 0 if never set).
  bool gauge_set = false;      // Gauge: was it ever set?
  HistogramSnapshot histogram; // Histogram.
};

/// All metrics, registration-ordered, merged across live and retired
/// shards. Values recorded concurrently with the snapshot may or may not be
/// included; call at quiescent points for exact totals.
[[nodiscard]] std::vector<MetricSnapshot> snapshot();

/// Zeroes every live shard and the retired accumulator (registrations are
/// kept). Call at quiescent points only.
void reset();

/// JSON export: {"qp_obs_version":1,"enabled":...,"metrics":[...]} with one
/// object per metric in registration order (see bench/merge_shards.py for
/// the cross-shard union of these files).
// qp-lint: allow(test-only-export) -- writes the QP_OBS_EXPORT file; tests export to memory
void export_json(std::ostream& out);

}  // namespace qp::obs
