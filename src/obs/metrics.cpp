#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace iguard::obs {

namespace {

/// Fixed-precision scalar formatting shared by JSON and CSV: integral values
/// (counters, bucket counts) print without a fraction, everything else as
/// %.9g — identical doubles always render to identical bytes.
std::string format_value(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

constexpr double kLatencyBoundsNs[] = {16.0,     32.0,     64.0,      128.0,     256.0,
                                       512.0,    1024.0,   2048.0,    4096.0,    8192.0,
                                       16384.0,  32768.0,  65536.0,   131072.0,  262144.0,
                                       1048576.0, 4194304.0, 16777216.0};

constexpr double kInstallLatencyBoundsS[] = {0.0,   1e-4, 5e-4, 1e-3, 5e-3,
                                             1e-2,  5e-2, 1e-1, 5e-1, 1.0};

}  // namespace

std::span<const double> default_latency_bounds_ns() { return kLatencyBoundsNs; }
std::span<const double> default_install_latency_bounds_s() { return kInstallLatencyBoundsS; }

Counter Registry::counter(std::string_view name) {
  if (!enabled()) return Counter{};
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& c : counters_)
    if (c->name == name) return Counter{c.get()};
  counters_.push_back(std::make_unique<detail::CounterData>());
  counters_.back()->name = std::string(name);
  return Counter{counters_.back().get()};
}

Gauge Registry::gauge(std::string_view name) {
  if (!enabled()) return Gauge{};
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& g : gauges_)
    if (g->name == name) return Gauge{g.get()};
  gauges_.push_back(std::make_unique<detail::GaugeData>());
  gauges_.back()->name = std::string(name);
  return Gauge{gauges_.back().get()};
}

Histogram Registry::histogram(std::string_view name, std::span<const double> bounds) {
  if (!enabled()) return Histogram{};
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& h : histograms_)
    if (h->name == name) return Histogram{h.get()};
  auto h = std::make_unique<detail::HistogramData>();
  h->name = std::string(name);
  h->bounds.assign(bounds.begin(), bounds.end());
  h->buckets = std::vector<std::atomic<std::uint64_t>>(h->bounds.size() + 1);
  histograms_.push_back(std::move(h));
  return Histogram{histograms_.back().get()};
}

Series Registry::series(std::string_view name, std::size_t capacity, std::uint64_t every_n) {
  if (!enabled()) return Series{};
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : series_)
    if (s->name == name) return Series{s.get()};
  auto s = std::make_unique<detail::SeriesData>();
  s->name = std::string(name);
  s->every_n = every_n == 0 ? 1 : every_n;
  // Sized construction, not resize(): the atomic-bearing slots are neither
  // copyable nor movable, and the capacity never changes afterwards.
  s->samples = std::vector<detail::SeriesData::Slot>(capacity);
  series_.push_back(std::move(s));
  return Series{series_.back().get()};
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& c : counters_) {
    out.scalars[c->name] = static_cast<double>(c->value.load(std::memory_order_relaxed));
  }
  for (const auto& g : gauges_) {
    out.scalars[g->name] = g->value.load(std::memory_order_relaxed);
  }
  for (const auto& h : histograms_) {
    const std::uint64_t n = h->count.load(std::memory_order_relaxed);
    out.scalars[h->name + ".count"] = static_cast<double>(n);
    out.scalars[h->name + ".sum"] = h->sum.load(std::memory_order_relaxed);
    out.scalars[h->name + ".min"] = n > 0 ? h->min.load(std::memory_order_relaxed) : 0.0;
    out.scalars[h->name + ".max"] = n > 0 ? h->max.load(std::memory_order_relaxed) : 0.0;
    for (std::size_t i = 0; i < h->buckets.size(); ++i) {
      char key[24];  // ".b" + up to 20 digits of a size_t + NUL
      std::snprintf(key, sizeof(key), ".b%02zu", i);
      out.scalars[h->name + key] =
          static_cast<double>(h->buckets[i].load(std::memory_order_relaxed));
    }
  }
  for (const auto& s : series_) {
    const std::uint64_t w = s->write_idx.load(std::memory_order_relaxed);
    const std::uint64_t n = w < s->samples.size() ? w : s->samples.size();
    out.scalars[s->name + ".events"] =
        static_cast<double>(s->events.load(std::memory_order_relaxed));
    out.scalars[s->name + ".dropped"] =
        static_cast<double>(s->dropped.load(std::memory_order_relaxed));
    auto& rows = out.series[s->name];
    rows.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      // Acquire pairs with the release publish in observe(): a zero event
      // index means the slot was reserved but not yet fully written — skip
      // it rather than tear-read a half-stored sample.
      const std::uint64_t e = s->samples[i].event.load(std::memory_order_acquire);
      if (e == 0) continue;
      rows.emplace_back(e, s->samples[i].value.load(std::memory_order_relaxed));
    }
  }
  return out;
}

MetricsSnapshot diff(const MetricsSnapshot& before, const MetricsSnapshot& after) {
  MetricsSnapshot out;
  for (const auto& [k, v] : after.scalars) {
    const auto it = before.scalars.find(k);
    out.scalars[k] = it == before.scalars.end() ? v : v - it->second;
  }
  out.series = after.series;
  return out;
}

MetricsSnapshot without_prefixes(const MetricsSnapshot& s,
                                 std::span<const std::string_view> prefixes) {
  const auto dropped = [&](const std::string& key) {
    for (const std::string_view p : prefixes) {
      if (key.size() >= p.size() && key.compare(0, p.size(), p) == 0) return true;
    }
    return false;
  };
  MetricsSnapshot out;
  for (const auto& [k, v] : s.scalars) {
    if (!dropped(k)) out.scalars.emplace(k, v);
  }
  for (const auto& [k, rows] : s.series) {
    if (!dropped(k)) out.series.emplace(k, rows);
  }
  return out;
}

std::string to_json(const MetricsSnapshot& s) {
  std::ostringstream os;
  os << "{\n  \"scalars\": {";
  bool first = true;
  for (const auto& [k, v] : s.scalars) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(k) << "\": " << format_value(v);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"series\": {";
  first = true;
  for (const auto& [k, rows] : s.series) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(k) << "\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "[" << rows[i].first << ", "
         << format_value(rows[i].second) << "]";
    }
    os << "]";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string to_csv(const MetricsSnapshot& s) {
  std::ostringstream os;
  os << "kind,key,index,value\n";
  for (const auto& [k, v] : s.scalars) {
    os << "scalar," << k << ",," << format_value(v) << "\n";
  }
  for (const auto& [k, rows] : s.series) {
    for (const auto& [idx, v] : rows) {
      os << "series," << k << "," << idx << "," << format_value(v) << "\n";
    }
  }
  return os.str();
}

namespace {

/// "pipeline.shard0.path.red" -> "iguard_pipeline_shard0_path_red". The
/// prefix keeps names starting with a letter; mapping every character the
/// exposition format forbids to '_' is lossy ("a.b" and "a_b" collide) but
/// registry keys only ever use [a-z0-9._], so no instrument collides.
std::string prometheus_name(const std::string& key) {
  std::string out;
  out.reserve(key.size() + 7);
  out += "iguard_";
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& s) {
  std::ostringstream os;
  for (const auto& [k, v] : s.scalars) {
    const std::string name = prometheus_name(k);
    os << "# TYPE " << name << " untyped\n" << name << " " << format_value(v) << "\n";
  }
  for (const auto& [k, rows] : s.series) {
    const std::string name = prometheus_name(k);
    os << "# TYPE " << name << " untyped\n";
    for (const auto& [idx, v] : rows) {
      os << name << "{event=\"" << idx << "\"} " << format_value(v) << "\n";
    }
  }
  return os.str();
}

}  // namespace iguard::obs
