// Fuzz target: io::TraceReader on arbitrary bytes, auto-detected format.
// The hardened-ingest contract under attack:
//   - never throws, never crashes, never trips a sanitizer;
//   - conservation: offered == accepted + quarantined (per category);
//   - the emitted trace holds exactly `accepted` packets, every one schema-
//     clean, with monotone non-negative timestamps;
//   - the quarantine ring never exceeds its capacity;
//   - the one-pass CSV parser returns exactly what the reference reader in
//     tests/csv_oracle.hpp returns: stats, packets bitwise, quarantine
//     entries with detail and snippet;
//   - a result refilled in place equals a fresh one, whatever it held.
// Violations abort() so the driver (or libFuzzer) flags the input.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "csv_oracle.hpp"
#include "io/ingest.hpp"

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_trace_reader: invariant violated: %s\n", what);
    std::abort();
  }
}

void check_same(const iguard::io::IngestResult& got, const iguard::io::IngestResult& want,
                const char* what) {
  const std::string diff = iguard::io::oracle::first_difference(got, want);
  if (!diff.empty()) {
    std::fprintf(stderr, "fuzz_trace_reader: %s: %s\n", what, diff.c_str());
    std::abort();
  }
}

void run(std::string_view bytes, iguard::io::TraceFormat fmt) {
  iguard::io::TraceReaderConfig cfg;
  cfg.format = fmt;
  cfg.limits.max_record_bytes = 1 << 16;
  cfg.limits.quarantine_capacity = 8;
  const iguard::io::TraceReader reader(cfg);
  const iguard::io::IngestResult r = reader.read_buffer(bytes);

  check(r.stats.conserved(), "offered != accepted + quarantined");
  check(r.trace.size() == r.stats.accepted, "trace size != accepted");
  check(r.quarantine.size() <= cfg.limits.quarantine_capacity, "quarantine over capacity");
  double prev = 0.0;
  for (const auto& p : r.trace.packets) {
    check(iguard::io::packet_violation(p).empty(), "schema-dirty packet accepted");
    check(p.ts >= prev, "timestamps not monotone");
    prev = p.ts;
  }
  if (!r.container_ok) {
    check(r.stats.by_category[static_cast<std::size_t>(
              iguard::io::IngestErrorCategory::kContainer)] > 0,
          "container failure without kContainer accounting");
  }
  if (fmt == iguard::io::TraceFormat::kCsv) {
    check_same(r, iguard::io::oracle::read_csv(bytes, cfg), "csv parser != oracle");
  }
  // One result reused across every input and format, as the daemon reuses
  // its batch result.
  static iguard::io::IngestResult reused;
  reader.read_buffer(bytes, reused);
  check_same(reused, r, "refilled result != fresh result");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  run(bytes, iguard::io::TraceFormat::kAuto);
  // Force both parsers over the same bytes: auto-detection must not be the
  // only thing standing between a parser and input it cannot survive.
  run(bytes, iguard::io::TraceFormat::kCsv);
  run(bytes, iguard::io::TraceFormat::kPcap);
  return 0;
}
