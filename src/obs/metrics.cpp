#include "obs/metrics.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <utility>

// The registry keeps one flat std::uint64_t slot array ("shard") per thread.
// Counters own one slot; gauges own two (set-flag, value bit pattern);
// histograms own 3 + kHistogramBuckets (count is derivable but kept for
// cheap export, then min/max bit patterns, then the buckets). Only the
// owning thread writes its shard; the registry reads other threads' shards
// during snapshot/reset. Both sides go through std::atomic_ref with relaxed
// ordering, which keeps TSan happy without putting a lock — or even a
// `lock`-prefixed RMW — on the record path: the owner does a plain
// load+store to a cache line nobody else writes.
//
// Determinism: every merged quantity is either a u64 sum (counters, bucket
// counts) or a min/max fold (histogram bounds, gauge level), so the merged
// snapshot does not depend on shard count or merge order. Shards of exited
// threads fold into `retired_` under the registry mutex.

namespace qp::obs {

namespace {

// Slot-layout offsets within a histogram's block.
constexpr std::size_t kHistCount = 0;
constexpr std::size_t kHistMinBits = 1;
constexpr std::size_t kHistMaxBits = 2;
constexpr std::size_t kHistBucket0 = 3;
constexpr std::size_t kHistSlots = kHistBucket0 + kHistogramBuckets;
constexpr std::size_t kGaugeSlots = 2;

std::uint64_t load_slot(const std::uint64_t& slot) noexcept {
  return std::atomic_ref<const std::uint64_t>(slot).load(
      std::memory_order_relaxed);
}

void store_slot(std::uint64_t& slot, std::uint64_t v) noexcept {
  std::atomic_ref<std::uint64_t>(slot).store(v, std::memory_order_relaxed);
}

struct MetricInfo {
  std::string name;
  MetricKind kind;
  std::size_t offset;  // First slot in the shard array.
  std::size_t slots;   // Slot count for this metric.
};

struct Shard {
  // Grows under the registry mutex; the owner thread only ever appends, so
  // readers iterating [0, size) under the mutex never see a moved buffer.
  std::vector<std::uint64_t> slots;
};

class Registry {
 public:
  static Registry& instance() {
    static Registry* reg = new Registry();  // Leaky: outlives thread exits.
    return *reg;
  }

  std::uint32_t register_metric(std::string_view name, MetricKind kind) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_name_.find(std::string(name));
    if (it != by_name_.end()) {
      const MetricInfo& info = metrics_[it->second];
      if (info.kind != kind) {
        throw std::logic_error("obs: metric '" + std::string(name) +
                               "' re-registered with a different kind");
      }
      return static_cast<std::uint32_t>(it->second);
    }
    const std::size_t slots = kind == MetricKind::Counter   ? 1
                              : kind == MetricKind::Gauge   ? kGaugeSlots
                                                            : kHistSlots;
    MetricInfo info{std::string(name), kind, total_slots_, slots};
    total_slots_ += slots;
    metrics_.push_back(std::move(info));
    const std::size_t id = metrics_.size() - 1;
    by_name_.emplace(metrics_[id].name, id);
    return static_cast<std::uint32_t>(id);
  }

  // Called from the hot path only when the calling thread's shard is too
  // short for the metric being recorded (first record of a late-registered
  // metric on this thread) — amortized away immediately.
  void grow_shard(Shard& shard) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shard.slots.size() < total_slots_) shard.slots.resize(total_slots_, 0);
  }

  void attach(Shard* shard) {
    std::lock_guard<std::mutex> lock(mutex_);
    shard->slots.resize(total_slots_, 0);
    live_.push_back(shard);
  }

  void detach(Shard* shard) {
    std::lock_guard<std::mutex> lock(mutex_);
    fold_into_retired(*shard);
    std::erase(live_, shard);
  }

  std::vector<MetricSnapshot> snapshot_all() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t> merged = retired_;
    merged.resize(total_slots_, 0);
    for (const Shard* shard : live_) merge_slots(merged, shard->slots);
    std::vector<MetricSnapshot> out;
    out.reserve(metrics_.size());
    for (const MetricInfo& info : metrics_) {
      MetricSnapshot snap;
      snap.name = info.name;
      snap.kind = info.kind;
      const std::uint64_t* base = merged.data() + info.offset;
      switch (info.kind) {
        case MetricKind::Counter:
          snap.value = base[0];
          break;
        case MetricKind::Gauge:
          snap.gauge_set = base[0] != 0;
          snap.gauge_value = snap.gauge_set ? std::bit_cast<double>(base[1]) : 0.0;
          break;
        case MetricKind::Histogram: {
          snap.histogram.count = base[kHistCount];
          if (snap.histogram.count > 0) {
            snap.histogram.min = std::bit_cast<double>(base[kHistMinBits]);
            snap.histogram.max = std::bit_cast<double>(base[kHistMaxBits]);
          }
          snap.histogram.buckets.assign(base + kHistBucket0,
                                        base + kHistBucket0 + kHistogramBuckets);
          break;
        }
      }
      out.push_back(std::move(snap));
    }
    return out;
  }

  void reset_all() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::fill(retired_.begin(), retired_.end(), 0);
    for (Shard* shard : live_) {
      for (std::uint64_t& slot : shard->slots) store_slot(slot, 0);
    }
  }

  const MetricInfo& info(std::uint32_t id) const { return metrics_[id]; }

 private:
  Registry() = default;

  void fold_into_retired(const Shard& shard) {
    retired_.resize(total_slots_, 0);
    merge_slots(retired_, shard.slots);
  }

  // merged[i] (+)= src[i], where (+) depends on which metric slot i belongs
  // to: sum for counters/hist counts/buckets, min/max fold for hist bounds,
  // flag-or + max for gauges. Relies on `metrics_` to interpret offsets.
  void merge_slots(std::vector<std::uint64_t>& merged,
                   const std::vector<std::uint64_t>& src) const {
    for (const MetricInfo& info : metrics_) {
      if (info.offset + info.slots > src.size()) break;  // Shard predates metric.
      std::uint64_t* dst = merged.data() + info.offset;
      const std::uint64_t* s = src.data() + info.offset;
      switch (info.kind) {
        case MetricKind::Counter:
          dst[0] += load_slot(s[0]);
          break;
        case MetricKind::Gauge: {
          const std::uint64_t set = load_slot(s[0]);
          if (set != 0) {
            const double v = std::bit_cast<double>(load_slot(s[1]));
            if (dst[0] == 0 || v > std::bit_cast<double>(dst[1])) {
              dst[1] = std::bit_cast<std::uint64_t>(v);
            }
            dst[0] = 1;
          }
          break;
        }
        case MetricKind::Histogram: {
          const std::uint64_t count = load_slot(s[kHistCount]);
          if (count != 0) {
            const double mn = std::bit_cast<double>(load_slot(s[kHistMinBits]));
            const double mx = std::bit_cast<double>(load_slot(s[kHistMaxBits]));
            if (dst[kHistCount] == 0 ||
                mn < std::bit_cast<double>(dst[kHistMinBits])) {
              dst[kHistMinBits] = std::bit_cast<std::uint64_t>(mn);
            }
            if (dst[kHistCount] == 0 ||
                mx > std::bit_cast<double>(dst[kHistMaxBits])) {
              dst[kHistMaxBits] = std::bit_cast<std::uint64_t>(mx);
            }
            dst[kHistCount] += count;
            for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
              dst[kHistBucket0 + b] += load_slot(s[kHistBucket0 + b]);
            }
          }
          break;
        }
      }
    }
  }

  mutable std::mutex mutex_;
  std::vector<MetricInfo> metrics_;
  std::map<std::string, std::size_t, std::less<>> by_name_;
  std::size_t total_slots_ = 0;
  std::vector<Shard*> live_;
  std::vector<std::uint64_t> retired_;
};

// Thread-local shard, registered with the registry on first use and folded
// into the retired accumulator when the thread exits. The holder is a
// heap-allocated Shard owned by a thread_local unique_ptr so detach() runs
// exactly once per thread even under odd teardown orders.
struct ShardHolder {
  ShardHolder() { Registry::instance().attach(&shard); }
  ~ShardHolder() { Registry::instance().detach(&shard); }
  Shard shard;
};

Shard& local_shard() {
  thread_local ShardHolder holder;
  return holder.shard;
}

// Runtime enable flag. Default comes from the QP_OBS env var; "0" disables.
std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("QP_OBS");
    return !(env != nullptr && env[0] == '0' && env[1] == '\0');
  }();
  return flag;
}

// QP_OBS_EXPORT=<path>: dump the JSON export at process exit. Installed
// once, lazily, by ensure_export_hook() from the registration path so that
// binaries that never register a metric never touch atexit.
void ensure_export_hook() {
  static const bool installed = [] {
    if (const char* path = std::getenv("QP_OBS_EXPORT");
        path != nullptr && path[0] != '\0') {
      static std::string export_path;  // Outlives atexit callback.
      export_path = path;
      std::atexit([] {
        std::ofstream out(export_path);
        if (out) export_json(out);
      });
    }
    return true;
  }();
  (void)installed;
}

void json_escape(std::ostream& out, std::string_view s);

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

void json_escape(std::ostream& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xF]
          << "0123456789abcdef"[c & 0xF];
    } else {
      out << c;
    }
  }
}

}  // namespace

std::size_t bucket_index(double value) noexcept {
  if (!(value > 0.0)) return 0;  // Non-positive and NaN.
  // ilogb(+inf) is INT_MAX; route it to the overflow bucket before the +22
  // below can overflow the int.
  if (std::isinf(value)) return kHistogramBuckets - 1;
  // ilogb(v) is the binary exponent; +22 places 2^-22 ≈ 0.24 micro-units in
  // bucket 1. Clamped so denormals land in bucket 1 and huge values in the
  // overflow bucket 63.
  const int e = std::ilogb(value) + 22;
  if (e < 1) return 1;
  if (e > 63) return 63;
  return static_cast<std::size_t>(e);
}

double bucket_upper_bound(std::size_t bucket) noexcept {
  if (bucket == 0) return 0.0;
  if (bucket >= kHistogramBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, static_cast<int>(bucket) - 21);
}

namespace detail {

void counter_add(std::uint32_t id, std::uint64_t n) noexcept {
  if (!enabled()) return;
  Registry& reg = Registry::instance();
  Shard& shard = local_shard();
  const MetricInfo& info = reg.info(id);
  if (info.offset + info.slots > shard.slots.size()) reg.grow_shard(shard);
  std::uint64_t& slot = shard.slots[info.offset];
  store_slot(slot, load_slot(slot) + n);
}

void gauge_set(std::uint32_t id, double value) noexcept {
  if (!enabled()) return;
  Registry& reg = Registry::instance();
  Shard& shard = local_shard();
  const MetricInfo& info = reg.info(id);
  if (info.offset + info.slots > shard.slots.size()) reg.grow_shard(shard);
  store_slot(shard.slots[info.offset], 1);
  store_slot(shard.slots[info.offset + 1], std::bit_cast<std::uint64_t>(value));
}

void histogram_record(std::uint32_t id, double value) noexcept {
  if (!enabled()) return;
  Registry& reg = Registry::instance();
  Shard& shard = local_shard();
  const MetricInfo& info = reg.info(id);
  if (info.offset + info.slots > shard.slots.size()) reg.grow_shard(shard);
  std::uint64_t* base = shard.slots.data() + info.offset;
  const std::uint64_t count = load_slot(base[kHistCount]);
  if (count == 0 || value < std::bit_cast<double>(load_slot(base[kHistMinBits]))) {
    store_slot(base[kHistMinBits], std::bit_cast<std::uint64_t>(value));
  }
  if (count == 0 || value > std::bit_cast<double>(load_slot(base[kHistMaxBits]))) {
    store_slot(base[kHistMaxBits], std::bit_cast<std::uint64_t>(value));
  }
  store_slot(base[kHistCount], count + 1);
  std::uint64_t& bucket = base[kHistBucket0 + bucket_index(value)];
  store_slot(bucket, load_slot(bucket) + 1);
}

}  // namespace detail

Counter counter(std::string_view name) {
  ensure_export_hook();
  return Counter(Registry::instance().register_metric(name, MetricKind::Counter));
}

Gauge gauge(std::string_view name) {
  ensure_export_hook();
  return Gauge(Registry::instance().register_metric(name, MetricKind::Gauge));
}

Histogram histogram(std::string_view name) {
  ensure_export_hook();
  return Histogram(
      Registry::instance().register_metric(name, MetricKind::Histogram));
}

bool enabled() noexcept {
  if constexpr (!kCompiled) return false;
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  if constexpr (kCompiled) {
    enabled_flag().store(on, std::memory_order_relaxed);
  } else {
    (void)on;
  }
}

std::vector<MetricSnapshot> snapshot() {
  if constexpr (!kCompiled) return {};
  return Registry::instance().snapshot_all();
}

void reset() {
  if constexpr (kCompiled) Registry::instance().reset_all();
}

double HistogramSnapshot::percentile(double p) const noexcept {
  if (count == 0) return 0.0;
  if (p <= 0.0) return min;
  const double clamped = p >= 100.0 ? 100.0 : p;
  // Rank of the percentile (1-based), ceil(count * p / 100).
  const std::uint64_t rank = [&] {
    const double r = static_cast<double>(count) * clamped / 100.0;
    const auto ceil_r = static_cast<std::uint64_t>(std::ceil(r));
    return ceil_r < 1 ? std::uint64_t{1} : ceil_r;
  }();
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      if (b + 1 >= kHistogramBuckets) return max;  // Overflow bucket.
      const double ub = bucket_upper_bound(b);
      return ub < max ? ub : max;
    }
  }
  return max;
}

void export_json(std::ostream& out) {
  out << "{\"qp_obs_version\":1,\"enabled\":" << (enabled() ? "true" : "false")
      << ",\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& m : snapshot()) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"";
    json_escape(out, m.name);
    out << "\",\"kind\":\"" << kind_name(m.kind) << "\"";
    switch (m.kind) {
      case MetricKind::Counter:
        out << ",\"value\":" << m.value;
        break;
      case MetricKind::Gauge:
        out << ",\"set\":" << (m.gauge_set ? "true" : "false")
            << ",\"value\":" << m.gauge_value;
        break;
      case MetricKind::Histogram: {
        out << ",\"count\":" << m.histogram.count
            << ",\"min\":" << m.histogram.min << ",\"max\":" << m.histogram.max
            << ",\"p50\":" << m.histogram.percentile(50.0)
            << ",\"p95\":" << m.histogram.percentile(95.0)
            << ",\"p99\":" << m.histogram.percentile(99.0) << ",\"buckets\":[";
        for (std::size_t b = 0; b < m.histogram.buckets.size(); ++b) {
          if (b != 0) out << ',';
          out << m.histogram.buckets[b];
        }
        out << ']';
        break;
      }
    }
    out << '}';
  }
  out << "]}\n";
}

}  // namespace qp::obs
