// The one-pass CSV parser against its oracle (DESIGN.md §4g): the row loop
// TraceReader used to run, kept in tests/csv_oracle.hpp. On every input and
// reader config below, read_buffer must return what the oracle returns —
// the same stats, the same packets bit for bit, and the same quarantine
// entries down to detail and snippet. A reused IngestResult must equal a
// fresh one whatever it held before.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "csv_oracle.hpp"
#include "io/chaos.hpp"
#include "ml/rng.hpp"
#include "trafficgen/pcap_io.hpp"

using namespace iguard;

namespace {

/// The reader configs every input is read under.
std::vector<io::TraceReaderConfig> reader_configs() {
  std::vector<io::TraceReaderConfig> out(4);
  for (auto& c : out) c.format = io::TraceFormat::kCsv;
  // [0] defaults: clamped timestamps, no budget, 1 MiB rows.
  // [1] strict timestamps with a max_records budget.
  out[1].clamp_timestamps = false;
  out[1].limits.max_records = 3;
  // [2] max_record_bytes below a full row's length.
  out[2].limits.max_record_bytes = 40;
  // [3] a small quarantine ring with short snippets: eviction order shows.
  out[3].limits.quarantine_capacity = 3;
  out[3].limits.quarantine_snippet_bytes = 7;
  return out;
}

/// Empty when the reader equals the oracle on `bytes` under every config.
std::string check_equivalent(std::string_view bytes) {
  for (const auto& cfg : reader_configs()) {
    const io::TraceReader reader(cfg);
    const std::string diff =
        io::oracle::first_difference(reader.read_buffer(bytes), io::oracle::read_csv(bytes, cfg));
    if (!diff.empty()) return diff;
  }
  return {};
}

std::string header() { return std::string(io::kTraceCsvHeader) + "\n"; }

traffic::Trace sample_trace(std::size_t flows, std::size_t per_flow, std::uint64_t seed) {
  ml::Rng rng(seed);
  traffic::Trace t;
  for (std::size_t f = 0; f < flows; ++f) {
    const traffic::FiveTuple ft{0x0A000000u + static_cast<std::uint32_t>(f) * 7919u,
                                0xC0A80001u, static_cast<std::uint16_t>(1024 + f * 13),
                                static_cast<std::uint16_t>(f % 2 == 0 ? 443 : 53),
                                f % 3 == 0 ? traffic::kProtoUdp : traffic::kProtoTcp};
    for (std::size_t i = 0; i < per_flow; ++i) {
      traffic::Packet p;
      p.ts = 0.001 * static_cast<double>(f) + 0.02 * static_cast<double>(i) +
             rng.uniform(0.0, 0.0003);
      p.ft = ft;
      p.length = static_cast<std::uint16_t>(40 + rng.index(1460));
      p.ttl = static_cast<std::uint8_t>(1 + rng.index(255));
      p.flags = static_cast<traffic::TcpFlag>(rng.index(6));
      p.malicious = f % 4 == 0;
      p.flow_id = static_cast<std::uint32_t>(f);
      t.packets.push_back(p);
    }
  }
  t.sort_by_time();
  return t;
}

/// Seeded damage, byte-level and CSV-aware: flips, cuts, noise, and the
/// tokens that sit on the parser's edges (signs, spaces, separators, field
/// width boundaries, long digit runs).
std::string mutate(std::string s, ml::Rng& rng) {
  static const std::vector<std::string> kTokens = {
      ",",          "\n",         "\r",         "\r\n",       "\r\r\n",     "-",
      "+",          " ",          "0x",         "e",          ".",          "inf",
      "nan",        "-0",         "1e400",      "00000000",   "255",        "256",
      "65535",      "65536",      "4294967295", "4294967296", "0",          "1",
      "5",          "6",          "17",         "99999999999999999999",     ",,",
      std::string(1, '\0'),       "\n\n",       "9",          "1.5",        "01"};
  const std::size_t edits = 1 + rng.index(6);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = s.empty() ? 0 : rng.index(s.size() + 1);
    switch (rng.index(6)) {
      case 0:  // flip one byte
        if (!s.empty()) s[rng.index(s.size())] ^= static_cast<char>(1 + rng.index(255));
        break;
      case 1:  // cut
        s.resize(at);
        break;
      case 2:  // delete a short run
        s.erase(at, 1 + rng.index(4));
        break;
      case 3:  // replace one byte by a token
        if (at < s.size()) s.erase(at, 1);
        s.insert(at, kTokens[rng.index(kTokens.size())]);
        break;
      default:  // insert a token
        s.insert(at, kTokens[rng.index(kTokens.size())]);
        break;
    }
  }
  return s;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

TEST(IngestCsvOracle, EdgeCasesMatch) {
  const std::string ok = "0.5,167772161,3232235777,443,51514,6,1500,64,1,0,7";
  const std::vector<std::string> rows = {
      ok,
      // integer widths: the last value that fits and the first that does not
      "0.5,4294967295,4294967296,443,51514,6,1500,64,1,0,7",
      "0.5,4294967295,0,65535,65535,17,65535,255,5,1,4294967295",
      "0.5,1,2,65536,4,6,5,6,1,0,1",
      "0.5,1,2,3,4,6,65536,6,1,0,1",
      "0.5,1,2,3,4,256,5,6,1,0,1",
      "0.5,1,2,3,4,6,5,256,1,0,1",
      "0.5,1,2,3,4,6,5,6,256,0,1",
      "0.5,1,2,3,4,6,5,6,1,256,1",
      "0.5,1,2,3,4,6,5,6,1,0,4294967296",
      "0.5,1,2,3,4,6,5,6,1,0,18446744073709551616",
      "0.5,1,2,3,4,6,5,6,1,0,99999999999999999999999999999999",
      // leading zeros, as the bench feed pads addresses
      "0.5,0000000001,00000000000000000000000000000004294967295,00443,0,006,0,0,0,0,0",
      "0.5," + std::string(300, '0') + "1,2,3,4,6,5,6,1,0,1",
      // signs, spaces, hex, exponents, junk
      "0.5,-1,2,3,4,6,5,6,1,0,1",
      "0.5,+1,2,3,4,6,5,6,1,0,1",
      "0.5, 1,2,3,4,6,5,6,1,0,1",
      "0.5,1 ,2,3,4,6,5,6,1,0,1",
      "0.5,0x1,2,3,4,6,5,6,1,0,1",
      "0.5,1e3,2,3,4,6,5,6,1,0,1",
      "0.5,1.0,2,3,4,6,5,6,1,0,1",
      "0.5,1,2,3,4,6,5,6,1,0,1z",
      "0.5,,2,3,4,6,5,6,1,0,1",
      "0.5,1,2,3,4,6,5,6,1,0,",
      std::string("0.5,1,2,3,4,6,5,6,1,0,1") + '\0',
      // range checks after a clean parse
      "0.5,1,2,3,4,47,5,6,1,0,1",
      "0.5,1,2,3,4,0,5,6,1,0,1",
      "0.5,1,2,3,4,6,5,6,6,0,1",
      "0.5,1,2,3,4,6,5,6,1,2,1",
      // timestamps
      "inf,1,2,3,4,6,5,6,1,0,1",
      "-inf,1,2,3,4,6,5,6,1,0,1",
      "nan,1,2,3,4,6,5,6,1,0,1",
      "nan(123),1,2,3,4,6,5,6,1,0,1",
      "1e400,1,2,3,4,6,5,6,1,0,1",
      "1e-400,1,2,3,4,6,5,6,1,0,1",
      "4.9406564584124654e-324,1,2,3,4,6,5,6,1,0,1",
      "-0,1,2,3,4,6,5,6,1,0,1",
      "-0.25,1,2,3,4,6,5,6,1,0,1",
      "0x1p3,1,2,3,4,6,5,6,1,0,1",
      "+0.5,1,2,3,4,6,5,6,1,0,1",
      " 0.5,1,2,3,4,6,5,6,1,0,1",
      ".5,1,2,3,4,6,5,6,1,0,1",
      "5.,1,2,3,4,6,5,6,1,0,1",
      "1e,1,2,3,4,6,5,6,1,0,1",
      ",1,2,3,4,6,5,6,1,0,1",
      "0.1234567890123456789012345678901234567890,1,2,3,4,6,5,6,1,0,1",
      // field counts
      "0.5",
      "0.5,1,2,3",
      "0.5,1,2,3,4,6,5,6,1,0",
      "0.5,1,2,3,4,6,5,6,1,0,1,",
      "0.5,1,2,3,4,6,5,6,1,0,1,extra",
      "zz,1,2,3,4,6,5,6,1,0,1,extra",
      ",,,,,,,,,,",
      ",,,,,,,,,,,",
      "garbage",
      "\r",
      "x\r",
      "0.5,1,2\r3,4,6,5,6,1,0,1",
      "0.5,1,2,3,4,6,5,6,1,0,1\r",
      "0.5,1,2,3,4,6,5,6,1,0,1\r\r",
      "0.5,1,2,3,4,6,5,6,1,0,1\r\r\r",
      std::string(200, '7'),
  };
  // Each row alone, in LF and CRLF form, with and without a final newline;
  // then followed by clean rows, so it is also read where a whole 64-byte
  // window of the buffer lies ahead of it.
  for (const auto& row : rows) {
    for (const char* eol : {"\n", "\r\n", ""}) {
      EXPECT_EQ(check_equivalent(header() + row + eol), "") << "row: " << row;
      EXPECT_EQ(check_equivalent(header() + row + eol + "\n" + ok + "\n" + ok + "\n"), "")
          << "row: " << row;
    }
  }
  // All rows in one stream, with blank and CR-only separator lines, in both
  // orders (the timestamp clamp and the budget depend on what came before).
  std::string all = header(), rev = header();
  for (const auto& row : rows) all += row + "\n\n\r\n";
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) rev += *it + "\r\n";
  EXPECT_EQ(check_equivalent(all), "");
  EXPECT_EQ(check_equivalent(rev), "");
  // Containers: no header, a damaged one, a CRLF one, a header and nothing.
  for (const std::string& bytes :
       {std::string(), std::string("\n"), ok + "\n", header().substr(1) + ok,
        std::string(io::kTraceCsvHeader) + "\r\n" + ok + "\r\n",
        std::string(io::kTraceCsvHeader), header(), header() + "\n\r\n\n",
        header() + "\r"}) {
    EXPECT_EQ(check_equivalent(bytes), "") << "bytes: " << bytes;
  }
}

TEST(IngestCsvOracle, FuzzCorpusAndSeededMutationsMatch) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(IGUARD_TRACE_READER_CORPUS)) {
    files.push_back(entry.path());
  }
  ASSERT_GE(files.size(), 5u) << "fuzz corpus not found at " << IGUARD_TRACE_READER_CORPUS;
  std::sort(files.begin(), files.end());  // the mutations follow the seed order
  std::vector<std::string> seeds;
  for (const auto& f : files) seeds.push_back(read_file(f));
  // A clean feed, to mutate from valid rows too.
  seeds.push_back(io::trace_to_csv(sample_trace(12, 6, 0xC5Full)));

  ml::Rng rng(0x0AC1Eull);
  std::size_t inputs = 0;
  for (const auto& seed : seeds) {
    ASSERT_EQ(check_equivalent(seed), "");
    for (int m = 0; m < 150; ++m) {
      const std::string bytes = mutate(seed, rng);
      const std::string diff = check_equivalent(bytes);
      ASSERT_EQ(diff, "") << "mutation " << m << " of a " << seed.size() << "-byte seed";
      ++inputs;
    }
  }
  EXPECT_GE(inputs, 1000u);
}

TEST(IngestCsvOracle, MangledFeedsMatch) {
  const std::string csv = io::trace_to_csv(sample_trace(40, 10, 0x3A9Cull));
  std::uint64_t quarantined = 0;
  for (const double rate : {0.01, 0.05, 0.2, 0.5}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      switchsim::FaultConfig fc;
      fc.seed = seed * 0x9E37ull;
      fc.record_truncate_rate = rate;
      fc.record_corrupt_rate = rate;
      fc.batch_duplicate_rate = rate / 2;
      fc.batch_reorder_rate = rate / 2;
      io::ChaosStats cs;
      const std::string bytes = io::mangle_csv(csv, fc, 16, cs);
      ASSERT_EQ(check_equivalent(bytes), "") << "rate " << rate << " seed " << seed;
      quarantined += io::TraceReader().read_buffer(bytes).stats.quarantined;
    }
  }
  EXPECT_GT(quarantined, 0u) << "chaos never damaged a record: the check is vacuous";
}

TEST(IngestCsvOracle, ReusedResultEqualsFreshRead) {
  const traffic::Trace t = sample_trace(8, 5, 0x51Dull);
  std::ostringstream os;
  traffic::write_pcap(os, t);
  const std::string pcap = os.str();
  const std::string csv = io::trace_to_csv(t);
  ml::Rng rng(0x2E5Eull);
  std::vector<std::string> inputs = {csv, pcap, "", "garbage\n", header(), csv + csv.substr(200)};
  for (int i = 0; i < 12; ++i) inputs.push_back(mutate(i % 2 == 0 ? csv : pcap, rng));

  std::vector<io::TraceReaderConfig> configs = reader_configs();
  configs.emplace_back();  // kAuto: routes the pcap inputs to the pcap parser
  configs.back().limits.max_records = 7;
  io::IngestResult reused;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const io::TraceReader reader(configs[c]);
      for (const auto& bytes : inputs) {
        reader.read_buffer(bytes, reused);
        ASSERT_EQ(io::oracle::first_difference(reused, reader.read_buffer(bytes)), "")
            << "config " << c << ", a " << bytes.size() << "-byte input";
      }
    }
  }
}
