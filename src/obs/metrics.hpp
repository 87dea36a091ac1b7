// Allocation-free observability layer (DESIGN.md §4d): a registry of named
// counters, gauges, fixed-bucket histograms, and bounded time series whose
// hot-path record operation is a relaxed atomic increment into storage
// preallocated at registration time. Instruments are obtained (get-or-create,
// mutex-protected) before the hot loop; the returned handles are trivially
// copyable pointer wrappers that no-op when the registry is disabled
// (ObsConfig::enabled = false), when the handle is default-constructed, or
// when the whole layer is compiled out with -DIGUARD_OBS_OFF.
//
// Determinism policy: every wall-clock-derived instrument is named under the
// "timing." namespace. All other keys are pure functions of the (seeded)
// workload, so two identical runs export byte-identical non-"timing." keys —
// the property scripts/check.sh --obs-smoke gates on. Writers of a given
// instrument should be single-threaded where byte-reproducible floating
// sums matter (sharded replay registers per-shard instruments for exactly
// this reason); the atomics only make concurrent use well-defined.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace iguard::obs {

struct ObsConfig {
  /// Runtime switch: a disabled registry hands out inactive handles, so the
  /// instrumented hot path pays one null check per record operation.
  bool enabled = true;
};

namespace detail {

/// Lock-free relaxed max/min update for doubles (histogram extrema).
inline void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
inline void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur > v && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

struct CounterData {
  std::string name;
  std::atomic<std::uint64_t> value{0};
};

struct GaugeData {
  std::string name;
  std::atomic<double> value{0.0};
};

struct HistogramData {
  std::string name;
  std::vector<double> bounds;  // ascending upper bounds; overflow bucket implied
  std::vector<std::atomic<std::uint64_t>> buckets;  // bounds.size() + 1
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{0.0};
  std::atomic<double> max{0.0};

  void record(double v) {
    // Branchless-enough upper_bound over a preallocated bounds array; a
    // value lands in the first bucket whose upper bound is >= v.
    std::size_t lo = 0, hi = bounds.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (bounds[mid] < v)
        lo = mid + 1;
      else
        hi = mid;
    }
    buckets[lo].fetch_add(1, std::memory_order_relaxed);
    if (count.fetch_add(1, std::memory_order_relaxed) == 0) {
      min.store(v, std::memory_order_relaxed);
      max.store(v, std::memory_order_relaxed);
    } else {
      atomic_min(min, v);
      atomic_max(max, v);
    }
    atomic_add(sum, v);
  }
};

struct SeriesData {
  /// One preallocated sample slot. `event` doubles as the publish flag:
  /// observe() stores the value first, then the (always nonzero) event index
  /// with release — a snapshot that acquires a nonzero event is guaranteed a
  /// fully written value, and skips slots still being filled. Without this
  /// protocol a live scrape (the daemon's /metrics thread) could tear-read a
  /// slot the serving thread is mid-write on.
  struct Slot {
    std::atomic<std::uint64_t> event{0};  // 0 = not yet published
    std::atomic<double> value{0.0};
  };

  std::string name;
  std::uint64_t every_n = 1;
  std::vector<Slot> samples;  // preallocated
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> write_idx{0};
  std::atomic<std::uint64_t> dropped{0};

  void observe(double v) {
    const std::uint64_t n = events.fetch_add(1, std::memory_order_relaxed) + 1;
    if (every_n == 0 || n % every_n != 0) return;
    const std::uint64_t i = write_idx.fetch_add(1, std::memory_order_relaxed);
    if (i < samples.size()) {
      samples[i].value.store(v, std::memory_order_relaxed);
      samples[i].event.store(n, std::memory_order_release);
    } else {
      dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

}  // namespace detail

/// Monotonic counter. inc() is one relaxed atomic add.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) {
#if !defined(IGUARD_OBS_OFF)
    if (d_ != nullptr) d_->value.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  std::uint64_t value() const {
    return d_ != nullptr ? d_->value.load(std::memory_order_relaxed) : 0;
  }
  bool active() const { return d_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(detail::CounterData* d) : d_(d) {}
  detail::CounterData* d_ = nullptr;
};

/// Last-write-wins gauge (occupancy, ratios). set() is one relaxed store.
class Gauge {
 public:
  Gauge() = default;

  void set(double v) {
#if !defined(IGUARD_OBS_OFF)
    if (d_ != nullptr) d_->value.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  double value() const {
    return d_ != nullptr ? d_->value.load(std::memory_order_relaxed) : 0.0;
  }
  bool active() const { return d_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeData* d) : d_(d) {}
  detail::GaugeData* d_ = nullptr;
};

/// Fixed-bucket histogram: bounds are frozen at registration, record() is a
/// binary search over the preallocated bounds plus bucket/count/sum updates —
/// no allocation, ever.
class Histogram {
 public:
  Histogram() = default;

  void record(double v) {
#if !defined(IGUARD_OBS_OFF)
    if (d_ != nullptr) d_->record(v);
#else
    (void)v;
#endif
  }
  std::uint64_t count() const {
    return d_ != nullptr ? d_->count.load(std::memory_order_relaxed) : 0;
  }
  double sum() const { return d_ != nullptr ? d_->sum.load(std::memory_order_relaxed) : 0.0; }
  std::size_t bucket_count() const { return d_ != nullptr ? d_->buckets.size() : 0; }
  std::uint64_t bucket(std::size_t i) const {
    return d_ != nullptr && i < d_->buckets.size()
               ? d_->buckets[i].load(std::memory_order_relaxed)
               : 0;
  }
  bool active() const { return d_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramData* d) : d_(d) {}
  detail::HistogramData* d_ = nullptr;
};

/// Bounded time series sampled on an event-count cadence: every `every_n`-th
/// observe() stores (event index, value) into a preallocated slot; once the
/// capacity is exhausted further samples are counted as dropped instead of
/// reallocating.
class Series {
 public:
  Series() = default;

  void observe(double v) {
#if !defined(IGUARD_OBS_OFF)
    if (d_ != nullptr) d_->observe(v);
#else
    (void)v;
#endif
  }
  std::uint64_t events() const {
    return d_ != nullptr ? d_->events.load(std::memory_order_relaxed) : 0;
  }
  std::uint64_t size() const {
    if (d_ == nullptr) return 0;
    const std::uint64_t w = d_->write_idx.load(std::memory_order_relaxed);
    return w < d_->samples.size() ? w : d_->samples.size();
  }
  bool active() const { return d_ != nullptr; }

 private:
  friend class Registry;
  explicit Series(detail::SeriesData* d) : d_(d) {}
  detail::SeriesData* d_ = nullptr;
};

/// Point-in-time view of a registry: flattened scalar keys (sorted by the
/// std::map) plus the sampled series. Counters and histogram bucket counts
/// are integral-valued doubles; to_json/to_csv print those without a
/// fraction, so exports are byte-stable for identical values.
struct MetricsSnapshot {
  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<std::pair<std::uint64_t, double>>> series;
};

/// after - before, scalar-wise (keys only in `after` diff against zero).
/// Series are taken from `after` unchanged.
MetricsSnapshot diff(const MetricsSnapshot& before, const MetricsSnapshot& after);

/// Copy of `s` with every scalar/series key that starts with any of
/// `prefixes` removed. How comparison gates carve a snapshot down to the
/// deterministic subtree they assert on (e.g. drop "timing." and the fleet
/// controller's own namespace when checking N=1 single-switch parity).
MetricsSnapshot without_prefixes(const MetricsSnapshot& s,
                                 std::span<const std::string_view> prefixes);

/// Deterministic exports: stable key order (sorted), fixed precision
/// (integral values print as integers, everything else as %.9g).
std::string to_json(const MetricsSnapshot& s);
std::string to_csv(const MetricsSnapshot& s);

/// Prometheus text exposition (text format 0.0.4 subset) of a snapshot: a
/// `# TYPE <name> untyped` line then `<name> <value>` per scalar, and one
/// labelled sample per retained series row (`<name>{event="<idx>"} <value>`).
/// Names are `iguard_` + the key with every character outside
/// [a-zA-Z0-9_:] mapped to '_', so "timing.*" keys surface as
/// `iguard_timing_*` and scrape gates can strip those lines the way the
/// JSON gates strip the "timing." prefix. Rendering is byte-deterministic:
/// sorted keys (map order) and the same fixed-precision value formatting as
/// to_json.
std::string to_prometheus(const MetricsSnapshot& s);

/// Default log-spaced nanosecond bounds for wall-clock latency histograms.
std::span<const double> default_latency_bounds_ns();
/// Default bounds (seconds) for simulated control-plane install latency.
std::span<const double> default_install_latency_bounds_s();

/// Instrument registry. Registration (get-or-create by full name) allocates
/// and takes a mutex — do it at construction time, not per packet. Handles
/// stay valid for the registry's lifetime; instrument storage never moves.
class Registry {
 public:
  explicit Registry(ObsConfig cfg = {}) : cfg_(cfg) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  bool enabled() const {
#if defined(IGUARD_OBS_OFF)
    return false;
#else
    return cfg_.enabled;
#endif
  }

  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `bounds` must be ascending; they are copied at registration. A second
  /// get with the same name returns the existing instrument (bounds of the
  /// first registration win).
  Histogram histogram(std::string_view name, std::span<const double> bounds);
  Series series(std::string_view name, std::size_t capacity, std::uint64_t every_n);

  /// Flatten every instrument into sorted scalar keys:
  ///   counter  ->  <name>
  ///   gauge    ->  <name>
  ///   histogram->  <name>.count / .sum / .min / .max / .b<i> (bucket counts)
  ///   series   ->  <name>.events / .dropped  + the sampled (index, value) rows
  MetricsSnapshot snapshot() const;

 private:
  ObsConfig cfg_;
  mutable std::mutex mu_;
  // Deques-of-nodes via unique_ptr: pointers handed to instruments stay
  // stable regardless of later registrations.
  std::vector<std::unique_ptr<detail::CounterData>> counters_;
  std::vector<std::unique_ptr<detail::GaugeData>> gauges_;
  std::vector<std::unique_ptr<detail::HistogramData>> histograms_;
  std::vector<std::unique_ptr<detail::SeriesData>> series_;
};

}  // namespace iguard::obs
