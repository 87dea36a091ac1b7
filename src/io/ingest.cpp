#include "io/ingest.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "trafficgen/pcap_io.hpp"

namespace iguard::io {

namespace {

constexpr std::size_t kMaxDetailBytes = 160;

std::string clip(std::string s) {
  if (s.size() > kMaxDetailBytes) s.resize(kMaxDetailBytes);
  return s;
}

}  // namespace

std::string_view category_name(IngestErrorCategory c) {
  switch (c) {
    case IngestErrorCategory::kTruncated: return "truncated";
    case IngestErrorCategory::kBadField: return "bad_field";
    case IngestErrorCategory::kRangeViolation: return "range_violation";
    case IngestErrorCategory::kUnsupported: return "unsupported";
    case IngestErrorCategory::kOversized: return "oversized";
    case IngestErrorCategory::kBudget: return "budget";
    case IngestErrorCategory::kContainer: return "container";
  }
  return "unknown";
}

void QuarantineRing::push(IngestErrorCategory cat, std::uint64_t record_index,
                          std::string detail, std::string_view raw) {
  IngestError e;
  e.category = cat;
  e.record_index = record_index;
  e.detail = clip(std::move(detail));
  e.snippet.assign(raw.substr(0, snippet_bytes_));
  if (capacity_ == 0) {
    ++evicted_;
    return;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
    return;
  }
  ring_[start_] = std::move(e);
  start_ = (start_ + 1) % capacity_;
  ++evicted_;
}

void QuarantineRing::reset(std::size_t capacity, std::size_t snippet_bytes) {
  capacity_ = capacity;
  snippet_bytes_ = snippet_bytes;
  ring_.clear();
  start_ = 0;
  evicted_ = 0;
}

bool IngestStats::conserved() const {
  std::uint64_t by_cat = 0;
  for (const auto n : by_category) by_cat += n;
  return offered == accepted + quarantined && quarantined == by_cat;
}

std::string trace_to_csv(const traffic::Trace& trace) {
  std::string out;
  out.reserve(trace.size() * 64 + 80);
  out.append(kTraceCsvHeader);
  out.push_back('\n');
  char row[192];
  for (const auto& p : trace.packets) {
    // %.17g round-trips every finite double bit-exactly.
    const int n = std::snprintf(row, sizeof(row), "%.17g,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u\n",
                                p.ts, p.ft.src_ip, p.ft.dst_ip, unsigned{p.ft.src_port},
                                unsigned{p.ft.dst_port}, unsigned{p.ft.proto},
                                unsigned{p.length}, unsigned{p.ttl},
                                static_cast<unsigned>(p.flags), p.malicious ? 1u : 0u,
                                p.flow_id);
    out.append(row, static_cast<std::size_t>(n));
  }
  return out;
}

TraceReader::TraceReader(TraceReaderConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.metrics != nullptr && cfg_.metrics->enabled()) {
    const std::string& p = cfg_.metrics_prefix;
    obs_.offered = cfg_.metrics->counter(p + ".offered");
    obs_.accepted = cfg_.metrics->counter(p + ".accepted");
    obs_.quarantined = cfg_.metrics->counter(p + ".quarantined");
    obs_.clamped = cfg_.metrics->counter(p + ".timestamps_clamped");
    for (std::size_t i = 0; i < kIngestCategories; ++i) {
      obs_.by_category[i] = cfg_.metrics->counter(
          p + ".quarantine." +
          std::string(category_name(static_cast<IngestErrorCategory>(i))));
    }
  }
}

void TraceReader::count(IngestResult& r, IngestErrorCategory cat, std::uint64_t index,
                        std::string detail, std::string_view raw) const {
  ++r.stats.quarantined;
  ++r.stats.by_category[static_cast<std::size_t>(cat)];
  r.quarantine.push(cat, index, std::move(detail), raw);
}

void TraceReader::finish(IngestResult& r) const {
  obs_.offered.inc(r.stats.offered);
  obs_.accepted.inc(r.stats.accepted);
  obs_.quarantined.inc(r.stats.quarantined);
  obs_.clamped.inc(r.stats.timestamps_clamped);
  for (std::size_t i = 0; i < kIngestCategories; ++i) {
    obs_.by_category[i].inc(r.stats.by_category[i]);
  }
}

namespace {

/// Shared timestamp sanitiser: clamp negatives to zero and regressions to
/// the running maximum (the same floor to_us() applies downstream), or
/// report a violation in strict mode. Returns the violation when the packet
/// must be quarantined instead of accepted, else an empty view.
std::string_view sanitise_ts(double& ts, double& prev_ts, bool clamp, IngestStats& stats) {
  double v = ts;
  if (v < 0.0) {
    if (!clamp) return "ts: negative timestamp in strict mode";
    v = 0.0;
  }
  if (v < prev_ts) {
    if (!clamp) return "ts: timestamp regression in strict mode";
    v = prev_ts;
  }
  if (v != ts) {
    ts = v;
    ++stats.timestamps_clamped;
  }
  prev_ts = v;
  return {};
}

// --- the one-pass CSV row scanner --------------------------------------------
//
// Each row is read once, front to back, with no separate search for its
// '\n' or its commas. Bytes are classified as digit or not 64 at a time (one
// word per 8 bytes), so the end of an integer field is a shift and a count
// of trailing zeros away; its digits are converted from one or two words,
// and the ',' that ends it starts the next field. The rules are exactly
// std::from_chars' for the field's unsigned type (base 10): one or more
// digits, leading zeros allowed, no sign, space or "0x", and a value past
// the type's maximum fails. The timestamp keeps std::from_chars, which may
// be handed the rest of the bytes: a double's syntax never contains ',',
// '\r' or '\n', so it stops where the field ends.

constexpr std::size_t kCsvFields = 11;

/// Largest value of each integer field's type, in schema order.
constexpr std::array<std::uint64_t, kCsvFields - 1> kIntFieldMax = {
    std::numeric_limits<decltype(traffic::FiveTuple::src_ip)>::max(),
    std::numeric_limits<decltype(traffic::FiveTuple::dst_ip)>::max(),
    std::numeric_limits<decltype(traffic::FiveTuple::src_port)>::max(),
    std::numeric_limits<decltype(traffic::FiveTuple::dst_port)>::max(),
    std::numeric_limits<decltype(traffic::FiveTuple::proto)>::max(),
    std::numeric_limits<decltype(traffic::Packet::length)>::max(),
    std::numeric_limits<decltype(traffic::Packet::ttl)>::max(),
    std::numeric_limits<std::uint8_t>::max(),  // flags: the TcpFlag ordinal
    std::numeric_limits<std::uint8_t>::max(),  // malicious: 0/1
    std::numeric_limits<decltype(traffic::Packet::flow_id)>::max(),
};
/// Accumulators saturate here, above every field's maximum, so a long run of
/// digits can neither wrap nor pass the width check.
constexpr std::uint64_t kSaturated = std::uint64_t{1} << 32;

std::uint64_t load8(const char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// Bit i set where byte i of the little-endian word `w` is not a decimal
/// digit; bits 8..63 clear.
std::uint64_t nondigit_bits(std::uint64_t w) {
  const std::uint64_t t = w ^ 0x3030303030303030ull;  // digits become 0..9, no other byte does
  const std::uint64_t high =
      (((t & 0x7F7F7F7F7F7F7F7Full) + 0x7676767676767676ull) | t) & 0x8080808080808080ull;
  return ((high >> 7) * 0x0102040810204080ull) >> 56;  // one bit per byte, gathered
}

/// The value of the first k (1..8) digits of the little-endian word `w`:
/// shifted to the word's top behind zero digits, then summed pairwise.
std::uint64_t digits_in_word(std::uint64_t w, std::size_t k) {
  std::uint64_t t = (w ^ 0x3030303030303030ull) << (8 * (8 - k));
  t = t * 10 + (t >> 8);
  return (((t & 0x000000FF000000FFull) * 0x000F424000000064ull) +
          (((t >> 16) & 0x000000FF000000FFull) * 0x0000271000000001ull)) >>
         32;
}

/// The scan's current window: bit i of `bits` is set when base[i] is not a
/// digit, for the 64 bytes from `base`.
struct Stops {
  const char* base;
  std::uint64_t bits = 0;
};

/// The first byte at or after `p` that is not a digit, or `end`.
const char* next_stop(const char* p, const char* end, Stops& s) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto off = static_cast<std::size_t>(p - s.base);
    if (off < 64 && (s.bits >> off) != 0) return p + std::countr_zero(s.bits >> off);
    for (; end - p >= 64; p += 64) {
      s.base = p;
      s.bits = 0;
      for (std::size_t w = 0; w < 8; ++w) s.bits |= nondigit_bits(load8(p + 8 * w)) << (8 * w);
      if (s.bits != 0) return p + std::countr_zero(s.bits);
    }
  }
  while (p != end && static_cast<unsigned char>(*p) - unsigned{'0'} <= 9) ++p;
  return p;
}

/// The value of the digit run [first, last), saturated at kSaturated.
std::uint64_t digits_value(const char* first, const char* last, const char* end) {
  const auto n = static_cast<std::size_t>(last - first);
  if constexpr (std::endian::native == std::endian::little) {
    // Sixteen digits or fewer fit 64 bits exactly: one word or two.
    if (n - 1 < 8 && end - first >= 8) return digits_in_word(load8(first), n);
    if (n - 9 < 8) {
      return digits_in_word(load8(first), n - 8) * 100000000 +
             digits_in_word(load8(last - 8), 8);
    }
  }
  std::uint64_t v = 0;
  for (; first != last; ++first) {
    v = std::min<std::uint64_t>(v * 10 + static_cast<unsigned char>(*first) - '0', kSaturated);
  }
  return v;
}

/// True where a row ends: at the end of the bytes, at '\n', or at the one
/// '\r' directly before either (the row's stripped trailing '\r').
bool at_row_end(const char* p, const char* end) {
  return p == end || *p == '\n' || (*p == '\r' && (p + 1 == end || p[1] == '\n'));
}

/// Where the row after the row end at `p` starts.
const char* past_row_end(const char* p, const char* end) {
  if (p == end) return end;
  if (*p == '\n') return p + 1;
  return p + 1 == end ? end : p + 2;  // "\r\n", or a final '\r'
}

/// What one pass over a row learned; the reader decides its verdict from
/// this in the documented order.
struct CsvRow {
  const char* end = nullptr;   // one past the row's last byte, trailing '\r' excluded
  const char* next = nullptr;  // start of the following row
  std::size_t fields = 0;      // fields seen; kCsvFields + 1 = "more than 11"
  bool ts_ok = false;
  bool ints_ok = true;
  double ts = 0.0;
  std::array<std::uint64_t, kCsvFields - 1> v{};  // integer fields, in schema order
};

/// Close the field whose value stopped at `p`. A clean field stops on its
/// terminator; anything else is junk that fails the field, skipped up to the
/// terminator. Leaves `p` on the terminator and returns true when it is a
/// ',' (another field follows).
bool end_field(const char*& p, const char* end, bool& ok) {
  if (p != end && *p == ',') return true;
  if (at_row_end(p, end)) return false;
  ok = false;
  do {
    ++p;
  } while (!at_row_end(p, end) && *p != ',');
  return p != end && *p == ',';
}

/// The bounds of the row that continues at `p`, unparsed: rows past the
/// budget, and the rest of a row with too many fields.
CsvRow skip_row(const char* p, const char* end) {
  CsvRow row;
  const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
  row.end = nl != nullptr ? static_cast<const char*>(nl) : end;
  row.next = nl != nullptr ? row.end + 1 : end;
  if (row.end > p && row.end[-1] == '\r') --row.end;
  return row;
}

/// Scan the non-blank row starting at `p`.
CsvRow scan_row(const char* p, const char* end, Stops& stops) {
  CsvRow row;
  const auto ts = std::from_chars(p, end, row.ts);
  row.ts_ok = ts.ec == std::errc{} && std::isfinite(row.ts);
  p = ts.ptr;
  bool more = end_field(p, end, row.ts_ok);
  row.fields = 1;
  for (; more && row.fields < kCsvFields; ++row.fields) {
    const char* const digits = ++p;  // past the ','
    p = next_stop(p, end, stops);
    const std::uint64_t v = digits_value(digits, p, end);
    bool ok = p != digits && v <= kIntFieldMax[row.fields - 1];
    row.v[row.fields - 1] = v;
    more = end_field(p, end, ok);
    row.ints_ok = row.ints_ok && ok;
  }
  if (more) {
    // An 11th ',': the count alone decides this row, so only its end is
    // still needed.
    CsvRow rest = skip_row(p, end);
    rest.fields = kCsvFields + 1;
    return rest;
  }
  row.end = p;
  row.next = past_row_end(p, end);
  return row;
}

}  // namespace

void TraceReader::read_csv(std::string_view bytes, IngestResult& r) const {
  // Header line first: its absence is container damage, counted as one
  // offered+quarantined record so conservation covers the probe itself.
  std::size_t pos = 0;
  {
    std::size_t eol = bytes.find('\n');
    std::string_view header = bytes.substr(0, eol == std::string_view::npos ? bytes.size() : eol);
    if (!header.empty() && header.back() == '\r') header.remove_suffix(1);
    if (header != kTraceCsvHeader) {
      ++r.stats.offered;
      count(r, IngestErrorCategory::kContainer, 0, "csv: missing or malformed header",
            header);
      r.container_ok = false;
      r.container_error = "csv: missing or malformed header";
      finish(r);
      return;
    }
    pos = eol == std::string_view::npos ? bytes.size() : eol + 1;
  }

  const char* p = bytes.data() + pos;
  const char* const end = bytes.data() + bytes.size();
  Stops stops{p};
  double prev_ts = 0.0;
  while (p != end) {
    if (at_row_end(p, end)) {  // blank separator lines are not records
      p = past_row_end(p, end);
      continue;
    }
    ++r.stats.offered;
    const std::uint64_t idx = r.stats.offered - 1;
    const bool over_budget =
        cfg_.limits.max_records != 0 && r.stats.accepted >= cfg_.limits.max_records;
    const CsvRow row = over_budget ? skip_row(p, end) : scan_row(p, end, stops);
    const std::string_view raw(p, static_cast<std::size_t>(row.end - p));
    p = row.next;

    // Verdicts in the reader's documented order.
    if (raw.size() > cfg_.limits.max_record_bytes) {
      count(r, IngestErrorCategory::kOversized, idx, "csv: row exceeds max_record_bytes",
            raw);
      continue;
    }
    if (over_budget) {
      count(r, IngestErrorCategory::kBudget, idx, "csv: max_records budget exhausted", raw);
      continue;
    }
    if (row.fields > kCsvFields) {
      count(r, IngestErrorCategory::kBadField, idx, "csv: more than 11 fields", raw);
      continue;
    }
    if (row.fields < kCsvFields) {
      count(r, IngestErrorCategory::kTruncated, idx,
            "csv: " + std::to_string(row.fields) + " of 11 fields", raw);
      continue;
    }
    if (!row.ts_ok) {
      count(r, IngestErrorCategory::kBadField, idx, "csv: ts is not a finite number", raw);
      continue;
    }
    if (!row.ints_ok) {
      count(r, IngestErrorCategory::kBadField, idx,
            "csv: numeric field failed strict parse or overflowed its width", raw);
      continue;
    }
    const auto& v = row.v;
    const auto proto = static_cast<std::uint8_t>(v[4]);
    if (proto != traffic::kProtoTcp && proto != traffic::kProtoUdp &&
        proto != traffic::kProtoIcmp) {
      count(r, IngestErrorCategory::kUnsupported, idx,
            "csv: proto " + std::to_string(unsigned{proto}) + " not in {1,6,17}", raw);
      continue;
    }
    if (v[7] > 5) {
      count(r, IngestErrorCategory::kRangeViolation, idx,
            "csv: flags ordinal " + std::to_string(v[7]) + " > 5", raw);
      continue;
    }
    if (v[8] > 1) {
      count(r, IngestErrorCategory::kRangeViolation, idx, "csv: malicious must be 0/1", raw);
      continue;
    }
    traffic::Packet pk;
    pk.ts = row.ts;
    pk.ft = {static_cast<std::uint32_t>(v[0]), static_cast<std::uint32_t>(v[1]),
             static_cast<std::uint16_t>(v[2]), static_cast<std::uint16_t>(v[3]), proto};
    pk.length = static_cast<std::uint16_t>(v[5]);
    pk.ttl = static_cast<std::uint8_t>(v[6]);
    pk.flags = static_cast<traffic::TcpFlag>(v[7]);
    pk.malicious = v[8] != 0;
    pk.flow_id = static_cast<std::uint32_t>(v[9]);
    if (const std::string_view why = sanitise_ts(pk.ts, prev_ts, cfg_.clamp_timestamps, r.stats);
        !why.empty()) {
      count(r, IngestErrorCategory::kRangeViolation, idx, "csv: " + std::string(why), raw);
      continue;
    }
    ++r.stats.accepted;
    r.trace.packets.push_back(pk);
  }
  finish(r);
}

void TraceReader::read_pcap(std::string_view bytes, IngestResult& r) const {
  const auto container_fail = [&](const std::string& msg) {
    ++r.stats.offered;
    count(r, IngestErrorCategory::kContainer, 0, msg, bytes.substr(0, 24));
    r.container_ok = false;
    r.container_error = msg;
    finish(r);
  };

  if (bytes.size() < traffic::kPcapGlobalHeaderLen) {
    return container_fail("pcap: truncated global header");
  }
  const auto rd32 = [&](std::size_t off) {
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
  };
  if (rd32(0) != traffic::kPcapMagicLE) {
    return container_fail("pcap: unsupported magic/endianness");
  }
  if (rd32(20) != traffic::kPcapLinkEthernet) {
    return container_fail("pcap: not Ethernet link type");
  }

  double prev_ts = 0.0;
  std::size_t pos = traffic::kPcapGlobalHeaderLen;
  while (pos < bytes.size()) {
    ++r.stats.offered;
    const std::uint64_t idx = r.stats.offered - 1;
    if (bytes.size() - pos < traffic::kPcapRecordHeaderLen) {
      count(r, IngestErrorCategory::kTruncated, idx, "pcap: truncated record header",
            bytes.substr(pos));
      break;
    }
    const std::uint32_t ts_sec = rd32(pos);
    const std::uint32_t ts_usec = rd32(pos + 4);
    const std::uint32_t incl = rd32(pos + 8);
    const std::uint32_t orig = rd32(pos + 12);
    pos += traffic::kPcapRecordHeaderLen;

    if (incl > cfg_.limits.max_record_bytes) {
      // The frame length itself is untrustworthy: skipping `incl` bytes
      // would let a forged length teleport the cursor, so stop framing.
      count(r, IngestErrorCategory::kOversized, idx,
            "pcap: incl_len " + std::to_string(incl) + " exceeds max_record_bytes",
            bytes.substr(pos - traffic::kPcapRecordHeaderLen, 32));
      break;
    }
    if (bytes.size() - pos < incl) {
      count(r, IngestErrorCategory::kTruncated, idx, "pcap: truncated record body",
            bytes.substr(pos));
      break;
    }
    const std::string_view frame = bytes.substr(pos, incl);
    pos += incl;

    if (cfg_.limits.max_records != 0 && r.stats.accepted >= cfg_.limits.max_records) {
      count(r, IngestErrorCategory::kBudget, idx, "pcap: max_records budget exhausted",
            frame);
      continue;
    }

    traffic::Packet p;
    const auto status = traffic::parse_pcap_record(ts_sec, ts_usec, orig, frame, p);
    switch (status) {
      case traffic::PcapRecordStatus::kOk:
        break;
      case traffic::PcapRecordStatus::kTruncated:
        count(r, IngestErrorCategory::kTruncated, idx, "pcap: frame below header stack",
              frame);
        continue;
      case traffic::PcapRecordStatus::kNotIpv4:
        count(r, IngestErrorCategory::kUnsupported, idx, "pcap: not IPv4", frame);
        continue;
      case traffic::PcapRecordStatus::kBadIpv4Header:
        count(r, IngestErrorCategory::kBadField, idx, "pcap: bad IPv4 header", frame);
        continue;
      case traffic::PcapRecordStatus::kUnsupportedProto:
        count(r, IngestErrorCategory::kUnsupported, idx, "pcap: proto not in {1,6,17}",
              frame);
        continue;
      case traffic::PcapRecordStatus::kBadLength:
        count(r, IngestErrorCategory::kRangeViolation, idx, "pcap: unrecoverable length",
              frame);
        continue;
      case traffic::PcapRecordStatus::kBadTimestamp:
        count(r, IngestErrorCategory::kRangeViolation, idx, "pcap: ts_usec > 999999",
              frame);
        continue;
    }

    if (const std::string_view why = sanitise_ts(p.ts, prev_ts, cfg_.clamp_timestamps, r.stats);
        !why.empty()) {
      count(r, IngestErrorCategory::kRangeViolation, idx, "pcap: " + std::string(why), frame);
      continue;
    }
    ++r.stats.accepted;
    r.trace.packets.push_back(p);
  }
  finish(r);
}

IngestResult TraceReader::read_buffer(std::string_view bytes) const {
  IngestResult r;
  read_buffer(bytes, r);
  return r;
}

void TraceReader::read_buffer(std::string_view bytes, IngestResult& out) const {
  out.trace.packets.clear();
  out.stats = {};
  out.quarantine.reset(cfg_.limits.quarantine_capacity, cfg_.limits.quarantine_snippet_bytes);
  out.container_ok = true;
  out.container_error.clear();
  TraceFormat fmt = cfg_.format;
  if (fmt == TraceFormat::kAuto) {
    std::uint32_t magic = 0;
    if (bytes.size() >= sizeof(magic)) std::memcpy(&magic, bytes.data(), sizeof(magic));
    fmt = magic == traffic::kPcapMagicLE ? TraceFormat::kPcap : TraceFormat::kCsv;
  }
  if (fmt == TraceFormat::kPcap) {
    read_pcap(bytes, out);
  } else {
    read_csv(bytes, out);
  }
}

IngestResult TraceReader::read_file(const std::string& path) const {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    IngestResult r;
    r.quarantine = QuarantineRing(cfg_.limits.quarantine_capacity,
                                  cfg_.limits.quarantine_snippet_bytes);
    ++r.stats.offered;
    count(r, IngestErrorCategory::kContainer, 0, "cannot open " + path, {});
    r.container_ok = false;
    r.container_error = "cannot open " + path;
    finish(r);
    return r;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string bytes = ss.str();
  return read_buffer(bytes);
}

std::string_view packet_violation(const traffic::Packet& p) {
  if (!std::isfinite(p.ts)) return "ts is not finite";
  if (p.ft.proto != traffic::kProtoTcp && p.ft.proto != traffic::kProtoUdp &&
      p.ft.proto != traffic::kProtoIcmp) {
    return "proto not in {1,6,17}";
  }
  if (static_cast<std::uint8_t>(p.flags) > 5) return "flags ordinal > 5";
  return {};
}

IngestResult ingest_trace(const traffic::Trace& trace, const TraceReaderConfig& cfg) {
  TraceReader reader(cfg);
  IngestResult r;
  r.quarantine = QuarantineRing(cfg.limits.quarantine_capacity,
                                cfg.limits.quarantine_snippet_bytes);
  r.trace.packets.reserve(trace.size());

  double prev_ts = 0.0;
  char row[192];
  const auto snippet_of = [&](const traffic::Packet& p) {
    const int n = std::snprintf(row, sizeof(row), "%.17g,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u",
                                p.ts, p.ft.src_ip, p.ft.dst_ip, unsigned{p.ft.src_port},
                                unsigned{p.ft.dst_port}, unsigned{p.ft.proto},
                                unsigned{p.length}, unsigned{p.ttl},
                                static_cast<unsigned>(p.flags), p.malicious ? 1u : 0u,
                                p.flow_id);
    return std::string_view(row, static_cast<std::size_t>(n));
  };
  struct CountHelper {
    IngestResult& r;
    void operator()(IngestErrorCategory cat, std::uint64_t idx, std::string detail,
                    std::string_view raw) {
      ++r.stats.quarantined;
      ++r.stats.by_category[static_cast<std::size_t>(cat)];
      r.quarantine.push(cat, idx, std::move(detail), raw);
    }
  } count{r};

  for (const auto& src : trace.packets) {
    ++r.stats.offered;
    const std::uint64_t idx = r.stats.offered - 1;
    if (cfg.limits.max_records != 0 && r.stats.accepted >= cfg.limits.max_records) {
      count(IngestErrorCategory::kBudget, idx, "trace: max_records budget exhausted",
            snippet_of(src));
      continue;
    }
    const std::string_view bad = packet_violation(src);
    if (!bad.empty()) {
      const auto cat = bad.substr(0, 5) == "proto" ? IngestErrorCategory::kUnsupported
                                                   : IngestErrorCategory::kRangeViolation;
      count(cat, idx, "trace: " + std::string(bad), snippet_of(src));
      continue;
    }
    traffic::Packet p = src;
    if (const std::string_view why = sanitise_ts(p.ts, prev_ts, cfg.clamp_timestamps, r.stats);
        !why.empty()) {
      count(IngestErrorCategory::kRangeViolation, idx, "trace: " + std::string(why),
            snippet_of(src));
      continue;
    }
    ++r.stats.accepted;
    r.trace.packets.push_back(p);
  }

  // Route the totals into the reader's metrics (registered by its ctor).
  if (cfg.metrics != nullptr && cfg.metrics->enabled()) {
    const std::string& pfx = cfg.metrics_prefix;
    cfg.metrics->counter(pfx + ".offered").inc(r.stats.offered);
    cfg.metrics->counter(pfx + ".accepted").inc(r.stats.accepted);
    cfg.metrics->counter(pfx + ".quarantined").inc(r.stats.quarantined);
    cfg.metrics->counter(pfx + ".timestamps_clamped").inc(r.stats.timestamps_clamped);
    for (std::size_t i = 0; i < kIngestCategories; ++i) {
      cfg.metrics
          ->counter(pfx + ".quarantine." +
                    std::string(category_name(static_cast<IngestErrorCategory>(i))))
          .inc(r.stats.by_category[i]);
    }
  }
  return r;
}

void encode_digest(const switchsim::Digest& d, std::string& out) {
  const auto be32 = [&](std::uint32_t v) {
    out.push_back(static_cast<char>(v >> 24));
    out.push_back(static_cast<char>(v >> 16));
    out.push_back(static_cast<char>(v >> 8));
    out.push_back(static_cast<char>(v));
  };
  const auto be16 = [&](std::uint16_t v) {
    out.push_back(static_cast<char>(v >> 8));
    out.push_back(static_cast<char>(v));
  };
  be32(d.ft.src_ip);
  be32(d.ft.dst_ip);
  be16(d.ft.src_port);
  be16(d.ft.dst_port);
  out.push_back(static_cast<char>(d.ft.proto));
  out.push_back(static_cast<char>(d.label != 0 ? 1 : 0));
}

std::string encode_digest(const switchsim::Digest& d) {
  std::string out;
  out.reserve(switchsim::Digest::kBytes);
  encode_digest(d, out);
  return out;
}

bool decode_digest(std::string_view bytes, switchsim::Digest& out) {
  if (bytes.size() != switchsim::Digest::kBytes) return false;
  const auto* d = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto rd32 = [&](std::size_t off) {
    return static_cast<std::uint32_t>(d[off]) << 24 | static_cast<std::uint32_t>(d[off + 1]) << 16 |
           static_cast<std::uint32_t>(d[off + 2]) << 8 | static_cast<std::uint32_t>(d[off + 3]);
  };
  const auto rd16 = [&](std::size_t off) {
    return static_cast<std::uint16_t>(d[off] << 8 | d[off + 1]);
  };
  const std::uint8_t proto = d[12];
  if (proto != traffic::kProtoTcp && proto != traffic::kProtoUdp &&
      proto != traffic::kProtoIcmp) {
    return false;
  }
  const std::uint8_t label = d[13];
  if (label > 1) return false;
  out.ft.src_ip = rd32(0);
  out.ft.dst_ip = rd32(4);
  out.ft.src_port = rd16(8);
  out.ft.dst_port = rd16(10);
  out.ft.proto = proto;
  out.label = label;
  return true;
}

std::vector<switchsim::Digest> decode_digest_stream(std::string_view bytes,
                                                    DigestDecodeStats& stats) {
  std::vector<switchsim::Digest> out;
  constexpr std::size_t kRec = switchsim::Digest::kBytes;
  out.reserve(bytes.size() / kRec);
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    ++stats.offered;
    if (bytes.size() - pos < kRec) {
      ++stats.rejected;  // trailing fragment
      break;
    }
    switchsim::Digest d;
    if (decode_digest(bytes.substr(pos, kRec), d)) {
      ++stats.decoded;
      out.push_back(d);
    } else {
      ++stats.rejected;
    }
    pos += kRec;
  }
  return out;
}

}  // namespace iguard::io
