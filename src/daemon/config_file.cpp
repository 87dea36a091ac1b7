#include "daemon/config_file.hpp"

#include <cstdio>
#include <cstdlib>

namespace iguard::daemon {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool parse_u64(std::string_view v, std::uint64_t& out) {
  if (v.empty()) return false;
  std::uint64_t acc = 0;
  for (const char c : v) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (acc > (UINT64_MAX - d) / 10) return false;
    acc = acc * 10 + d;
  }
  out = acc;
  return true;
}

bool parse_double(std::string_view v, double& out) {
  const std::string s(v);
  char* end = nullptr;
  const double x = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == s.c_str()) return false;
  out = x;
  return true;
}

bool parse_bool(std::string_view v, bool& out) {
  if (v == "true" || v == "1" || v == "on") {
    out = true;
    return true;
  }
  if (v == "false" || v == "0" || v == "off") {
    out = false;
    return true;
  }
  return false;
}

/// Apply one key=value pair; empty on success, otherwise the problem.
std::string apply(std::string_view key, std::string_view val, DaemonConfig& c) {
  const auto bad = [&](const char* want) {
    return "value '" + std::string(val) + "' for " + std::string(key) + " (want " + want + ")";
  };
  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;

  // --- source ---------------------------------------------------------------
  if (key == "source.path" || key == "trace") {
    c.source.kind = SourceConfig::Kind::kFile;
    c.source.path = std::string(val);
    return {};
  }
  if (key == "source.stdin") {
    if (!parse_bool(val, b)) return bad("bool");
    if (b) {
      c.source.kind = SourceConfig::Kind::kFd;
      c.source.fd = 0;
    }
    return {};
  }
  if (key == "source.loops") {
    if (!parse_u64(val, u)) return bad("uint");
    c.source.loops = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "source.follow") {
    if (!parse_bool(val, b)) return bad("bool");
    c.source.follow = b;
    return {};
  }
  if (key == "source.loop_gap_s") {
    if (!parse_double(val, d)) return bad("double");
    c.source.loop_gap_s = d;
    return {};
  }
  if (key == "source.chunk_bytes") {
    if (!parse_u64(val, u)) return bad("uint");
    c.source.chunk_bytes = static_cast<std::size_t>(u);
    return {};
  }

  // --- reader ---------------------------------------------------------------
  if (key == "reader.format") {
    if (val == "auto") {
      c.reader.format = io::TraceFormat::kAuto;
    } else if (val == "csv") {
      c.reader.format = io::TraceFormat::kCsv;
    } else if (val == "pcap") {
      c.reader.format = io::TraceFormat::kPcap;
    } else {
      return bad("auto|csv|pcap");
    }
    return {};
  }
  if (key == "reader.clamp_timestamps") {
    if (!parse_bool(val, b)) return bad("bool");
    c.reader.clamp_timestamps = b;
    return {};
  }
  if (key == "reader.max_record_bytes") {
    if (!parse_u64(val, u)) return bad("uint");
    c.reader.limits.max_record_bytes = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "reader.quarantine_capacity") {
    if (!parse_u64(val, u)) return bad("uint");
    c.reader.limits.quarantine_capacity = static_cast<std::size_t>(u);
    return {};
  }

  // --- overload gate --------------------------------------------------------
  if (key == "overload.enabled") {
    if (!parse_bool(val, b)) return bad("bool");
    c.overload.enabled = b;
    return {};
  }
  if (key == "overload.queue_capacity") {
    if (!parse_u64(val, u)) return bad("uint");
    c.overload.queue_capacity = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "overload.drain_rate_pps") {
    if (!parse_double(val, d)) return bad("double");
    c.overload.drain_rate_pps = d;
    return {};
  }
  if (key == "overload.policy") {
    if (val == "drop_newest") {
      c.overload.policy = io::ShedPolicy::kDropNewest;
    } else if (val == "drop_oldest") {
      c.overload.policy = io::ShedPolicy::kDropOldest;
    } else if (val == "flow_hash") {
      c.overload.policy = io::ShedPolicy::kFlowHash;
    } else {
      return bad("drop_newest|drop_oldest|flow_hash");
    }
    return {};
  }
  if (key == "overload.seed") {
    if (!parse_u64(val, u)) return bad("uint");
    c.overload.seed = u;
    return {};
  }
  if (key == "overload.flow_shed_fraction") {
    if (!parse_double(val, d)) return bad("double");
    c.overload.flow_shed_fraction = d;
    return {};
  }

  // --- pipeline -------------------------------------------------------------
  if (key == "pipeline.packet_threshold_n") {
    if (!parse_u64(val, u)) return bad("uint");
    c.pipeline.packet_threshold_n = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "pipeline.idle_timeout_delta") {
    if (!parse_double(val, d)) return bad("double");
    c.pipeline.idle_timeout_delta = d;
    return {};
  }
  if (key == "pipeline.flow_slots") {
    if (!parse_u64(val, u)) return bad("uint");
    c.pipeline.flow_slots = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "pipeline.blacklist_capacity") {
    if (!parse_u64(val, u)) return bad("uint");
    c.pipeline.blacklist_capacity = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "pipeline.eviction") {
    if (val == "fifo") {
      c.pipeline.eviction = switchsim::EvictionPolicy::kFifo;
    } else if (val == "lru") {
      c.pipeline.eviction = switchsim::EvictionPolicy::kLru;
    } else {
      return bad("fifo|lru");
    }
    return {};
  }
  if (key == "pipeline.control.control_latency_s") {
    if (!parse_double(val, d)) return bad("double");
    c.pipeline.control.control_latency_s = d;
    return {};
  }
  if (key == "pipeline.control.channel_capacity") {
    if (!parse_u64(val, u)) return bad("uint");
    c.pipeline.control.channel_capacity = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "pipeline.swap.enabled") {
    if (!parse_bool(val, b)) return bad("bool");
    c.pipeline.swap.enabled = b;
    return {};
  }
  if (key == "pipeline.swap.publish_after_extensions") {
    if (!parse_u64(val, u)) return bad("uint");
    c.pipeline.swap.publish_after_extensions = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "pipeline.swap.swap_latency_s") {
    if (!parse_double(val, d)) return bad("double");
    c.pipeline.swap.swap_latency_s = d;
    return {};
  }

  // --- daemon ---------------------------------------------------------------
  if (key == "shards") {
    if (!parse_u64(val, u)) return bad("uint");
    c.shards = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "shard_seed") {
    if (!parse_u64(val, u)) return bad("uint");
    c.shard_seed = u;
    return {};
  }
  if (key == "ring_capacity") {
    if (!parse_u64(val, u)) return bad("uint");
    c.ring_capacity = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "max_batch_records") {
    if (!parse_u64(val, u)) return bad("uint");
    c.max_batch_records = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "alert_check_every") {
    if (!parse_u64(val, u)) return bad("uint");
    c.alert_check_every = u;
    return {};
  }
  if (key == "alert_capacity") {
    if (!parse_u64(val, u)) return bad("uint");
    c.alert_capacity = static_cast<std::size_t>(u);
    return {};
  }
  if (key == "metrics_prefix") {
    c.metrics_prefix = std::string(val);
    return {};
  }
  return "unknown key '" + std::string(key) + "'";
}

}  // namespace

std::string parse_config_text(std::string_view text, DaemonConfig& out) {
  std::size_t lineno = 0;
  while (!text.empty()) {
    ++lineno;
    const std::size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view{} : text.substr(eol + 1);

    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return "line " + std::to_string(lineno) + ": expected key = value";
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view val = trim(line.substr(eq + 1));
    if (key.empty()) return "line " + std::to_string(lineno) + ": empty key";
    if (const std::string err = apply(key, val, out); !err.empty()) {
      return "line " + std::to_string(lineno) + ": " + err;
    }
  }
  return {};
}

std::string load_config_file(const std::string& path, DaemonConfig& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "cannot open " + path;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_config_text(text, out);
}

}  // namespace iguard::daemon
