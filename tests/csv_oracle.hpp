// Reference CSV reader for the equivalence gates (DESIGN.md §4g). This is
// the row loop io::TraceReader ran before its one-pass parser, kept as the
// oracle that parser must match byte for byte: it finds each row's '\n',
// splits the row at every ',' into at most 11 fields, and only then parses
// each field with std::from_chars over exactly that field's bytes. Slow on
// purpose and never on a serving path — tests/ and the trace-reader fuzz
// target include it, src/ does not.
//
// first_difference() compares two reader results completely: container
// verdict, IngestStats, every accepted packet bitwise, and every quarantine
// entry (category, record index, detail, snippet) plus the ring's shape.
#pragma once

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "io/ingest.hpp"

namespace iguard::io::oracle {

/// from_chars-strict scalar parse: the whole field, nothing but the value.
template <typename T>
bool parse_int(std::string_view s, T& out) {
  if (s.empty()) return false;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto res = std::from_chars(first, last, out, 10);
  return res.ec == std::errc{} && res.ptr == last;
}

inline bool parse_double(std::string_view s, double& out) {
  if (s.empty()) return false;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto res = std::from_chars(first, last, out);
  return res.ec == std::errc{} && res.ptr == last && std::isfinite(out);
}

/// The reader's timestamp rule: clamp negatives to zero and regressions to
/// the running maximum (counted), or refuse them in strict mode.
inline bool sanitise_ts(double& ts, double& prev_ts, bool clamp, IngestStats& stats,
                        std::string* why) {
  double v = ts;
  if (v < 0.0) {
    if (!clamp) {
      if (why != nullptr) *why = "ts: negative timestamp in strict mode";
      return false;
    }
    v = 0.0;
  }
  if (v < prev_ts) {
    if (!clamp) {
      if (why != nullptr) *why = "ts: timestamp regression in strict mode";
      return false;
    }
    v = prev_ts;
  }
  if (v != ts) {
    ts = v;
    ++stats.timestamps_clamped;
  }
  prev_ts = v;
  return true;
}

/// What TraceReader(cfg).read_buffer(bytes) must return for CSV input
/// (cfg.format pinned to kCsv, or kAuto on bytes without the pcap magic).
/// Metrics are not touched.
inline IngestResult read_csv(std::string_view bytes, const TraceReaderConfig& cfg) {
  IngestResult r;
  r.quarantine = QuarantineRing(cfg.limits.quarantine_capacity,
                                cfg.limits.quarantine_snippet_bytes);
  const auto count = [&r](IngestErrorCategory cat, std::uint64_t index, std::string detail,
                          std::string_view raw) {
    ++r.stats.quarantined;
    ++r.stats.by_category[static_cast<std::size_t>(cat)];
    r.quarantine.push(cat, index, std::move(detail), raw);
  };

  std::size_t pos = 0;
  {
    std::size_t eol = bytes.find('\n');
    std::string_view header = bytes.substr(0, eol == std::string_view::npos ? bytes.size() : eol);
    if (!header.empty() && header.back() == '\r') header.remove_suffix(1);
    if (header != kTraceCsvHeader) {
      ++r.stats.offered;
      count(IngestErrorCategory::kContainer, 0, "csv: missing or malformed header", header);
      r.container_ok = false;
      r.container_error = "csv: missing or malformed header";
      return r;
    }
    pos = eol == std::string_view::npos ? bytes.size() : eol + 1;
  }

  double prev_ts = 0.0;
  while (pos < bytes.size()) {
    std::size_t eol = bytes.find('\n', pos);
    if (eol == std::string_view::npos) eol = bytes.size();
    std::string_view row = bytes.substr(pos, eol - pos);
    pos = eol + 1;
    if (!row.empty() && row.back() == '\r') row.remove_suffix(1);
    if (row.empty()) continue;  // blank separator lines are not records

    ++r.stats.offered;
    const std::uint64_t idx = r.stats.offered - 1;

    if (row.size() > cfg.limits.max_record_bytes) {
      count(IngestErrorCategory::kOversized, idx, "csv: row exceeds max_record_bytes", row);
      continue;
    }
    if (cfg.limits.max_records != 0 && r.stats.accepted >= cfg.limits.max_records) {
      count(IngestErrorCategory::kBudget, idx, "csv: max_records budget exhausted", row);
      continue;
    }

    // Split into exactly 11 fields.
    std::array<std::string_view, 11> f;
    std::size_t nfields = 0;
    std::size_t start = 0;
    bool too_many = false;
    for (std::size_t i = 0; i <= row.size(); ++i) {
      if (i == row.size() || row[i] == ',') {
        if (nfields == f.size()) {
          too_many = true;
          break;
        }
        f[nfields++] = row.substr(start, i - start);
        start = i + 1;
      }
    }
    if (too_many) {
      count(IngestErrorCategory::kBadField, idx, "csv: more than 11 fields", row);
      continue;
    }
    if (nfields < f.size()) {
      count(IngestErrorCategory::kTruncated, idx,
            "csv: " + std::to_string(nfields) + " of 11 fields", row);
      continue;
    }

    traffic::Packet p;
    std::uint8_t flags = 0, malicious = 0;
    if (!parse_double(f[0], p.ts)) {
      count(IngestErrorCategory::kBadField, idx, "csv: ts is not a finite number", row);
      continue;
    }
    if (!parse_int(f[1], p.ft.src_ip) || !parse_int(f[2], p.ft.dst_ip) ||
        !parse_int(f[3], p.ft.src_port) || !parse_int(f[4], p.ft.dst_port) ||
        !parse_int(f[5], p.ft.proto) || !parse_int(f[6], p.length) ||
        !parse_int(f[7], p.ttl) || !parse_int(f[8], flags) || !parse_int(f[9], malicious) ||
        !parse_int(f[10], p.flow_id)) {
      count(IngestErrorCategory::kBadField, idx,
            "csv: numeric field failed strict parse or overflowed its width", row);
      continue;
    }
    if (p.ft.proto != traffic::kProtoTcp && p.ft.proto != traffic::kProtoUdp &&
        p.ft.proto != traffic::kProtoIcmp) {
      count(IngestErrorCategory::kUnsupported, idx,
            "csv: proto " + std::to_string(unsigned{p.ft.proto}) + " not in {1,6,17}", row);
      continue;
    }
    if (flags > 5) {
      count(IngestErrorCategory::kRangeViolation, idx,
            "csv: flags ordinal " + std::to_string(unsigned{flags}) + " > 5", row);
      continue;
    }
    if (malicious > 1) {
      count(IngestErrorCategory::kRangeViolation, idx, "csv: malicious must be 0/1", row);
      continue;
    }
    p.flags = static_cast<traffic::TcpFlag>(flags);
    p.malicious = malicious != 0;

    std::string why;
    if (!sanitise_ts(p.ts, prev_ts, cfg.clamp_timestamps, r.stats, &why)) {
      count(IngestErrorCategory::kRangeViolation, idx, "csv: " + why, row);
      continue;
    }
    ++r.stats.accepted;
    r.trace.packets.push_back(p);
  }
  return r;
}

/// Empty when `got` and `want` are the same result in every observable
/// respect; otherwise the first difference, spelled out.
inline std::string first_difference(const IngestResult& got, const IngestResult& want) {
  if (got.container_ok != want.container_ok) return "container_ok differs";
  if (got.container_error != want.container_error) {
    return "container_error '" + got.container_error + "' != '" + want.container_error + "'";
  }
  if (!(got.stats == want.stats)) {
    return "stats differ: offered/accepted/quarantined/clamped " +
           std::to_string(got.stats.offered) + "/" + std::to_string(got.stats.accepted) + "/" +
           std::to_string(got.stats.quarantined) + "/" +
           std::to_string(got.stats.timestamps_clamped) + " vs " +
           std::to_string(want.stats.offered) + "/" + std::to_string(want.stats.accepted) + "/" +
           std::to_string(want.stats.quarantined) + "/" +
           std::to_string(want.stats.timestamps_clamped);
  }
  if (got.trace.size() != want.trace.size()) return "trace sizes differ";
  for (std::size_t i = 0; i < got.trace.size(); ++i) {
    const traffic::Packet& a = got.trace.packets[i];
    const traffic::Packet& b = want.trace.packets[i];
    if (std::bit_cast<std::uint64_t>(a.ts) != std::bit_cast<std::uint64_t>(b.ts) ||
        !(a.ft == b.ft) || a.length != b.length || a.ttl != b.ttl || a.flags != b.flags ||
        a.malicious != b.malicious || a.flow_id != b.flow_id) {
      return "packet " + std::to_string(i) + " differs";
    }
  }
  const QuarantineRing& qa = got.quarantine;
  const QuarantineRing& qb = want.quarantine;
  if (qa.size() != qb.size() || qa.capacity() != qb.capacity() || qa.evicted() != qb.evicted()) {
    return "quarantine rings differ in size, capacity or evictions";
  }
  for (std::size_t i = 0; i < qa.size(); ++i) {
    const IngestError& a = qa[i];
    const IngestError& b = qb[i];
    if (a.category != b.category || a.record_index != b.record_index || a.detail != b.detail ||
        a.snippet != b.snippet) {
      return "quarantine entry " + std::to_string(i) + " differs: [" +
             std::string(category_name(a.category)) + " #" + std::to_string(a.record_index) +
             " '" + a.detail + "'] vs [" + std::string(category_name(b.category)) + " #" +
             std::to_string(b.record_index) + " '" + b.detail + "']";
    }
  }
  return {};
}

}  // namespace iguard::io::oracle
