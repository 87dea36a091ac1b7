// Hardened ingest boundary (src/io, DESIGN.md §4g): strict readers on
// untrusted bytes, quarantine accounting, overload shedding, the SPSC ring,
// ingest chaos, config validation, and the conservation + determinism +
// byte-identity contracts the bench gates enforce at scale.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <span>
#include <sstream>
#include <thread>

#include "deadline.hpp"
#include "fault_audit.hpp"
#include "io/replay.hpp"
#include "io/spsc_ring.hpp"
#include "ml/rng.hpp"
#include "trafficgen/pcap_io.hpp"

using namespace iguard;

namespace {

std::string header_line() { return std::string(io::kTraceCsvHeader) + "\n"; }

std::string valid_row(double ts, std::uint32_t flow = 1) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.17g,167772161,3232235777,443,51514,6,1500,64,1,0,%u\n",
                ts, flow);
  return buf;
}

traffic::Trace small_trace(std::size_t flows, std::size_t per_flow, std::uint64_t seed) {
  ml::Rng rng(seed);
  traffic::Trace t;
  for (std::size_t f = 0; f < flows; ++f) {
    traffic::FiveTuple ft{0x0A000000u + static_cast<std::uint32_t>(f), 0x0B000001u,
                          static_cast<std::uint16_t>(1024 + f), 443, traffic::kProtoTcp};
    for (std::size_t i = 0; i < per_flow; ++i) {
      traffic::Packet p;
      p.ts = 0.001 * static_cast<double>(f) + 0.02 * static_cast<double>(i) +
             rng.uniform(0.0, 0.0003);
      p.ft = ft;
      p.length = static_cast<std::uint16_t>(100 + rng.index(500));
      p.malicious = f % 3 == 0;
      t.packets.push_back(p);
    }
  }
  t.sort_by_time();
  return t;
}

/// Minimal deployed model (the bench idiom): one all-pass whitelist rule
/// over a quantizer fitted on a synthetic [0, 1e6] feature box.
struct TinyModel {
  rules::Quantizer quant{16};
  core::VoteWhitelist wl;
  switchsim::DeployedModel dm;

  TinyModel() {
    ml::Matrix fake(2, switchsim::kSwitchFlFeatures);
    for (std::size_t j = 0; j < switchsim::kSwitchFlFeatures; ++j) {
      fake(0, j) = 0.0;
      fake(1, j) = 1e6;
    }
    quant.fit(fake);
    wl.tree_count = 1;
    std::vector<rules::FieldRange> box(switchsim::kSwitchFlFeatures,
                                       {0, quant.domain_max()});
    wl.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
    dm.fl_tables = &wl;
    dm.fl_quantizer = &quant;
  }
};

std::uint64_t cat(const io::IngestStats& s, io::IngestErrorCategory c) {
  return s.by_category[static_cast<std::size_t>(c)];
}

}  // namespace

// ---------------------------------------------------------------------------
// CSV reader

TEST(IngestCsv, ParsesValidRowsExactly) {
  const std::string csv = header_line() + valid_row(0.125) + valid_row(0.25, 2);
  const io::TraceReader reader;
  const auto r = reader.read_buffer(csv);
  ASSERT_TRUE(r.container_ok);
  ASSERT_EQ(r.stats.offered, 2u);
  ASSERT_EQ(r.stats.accepted, 2u);
  EXPECT_EQ(r.stats.quarantined, 0u);
  EXPECT_TRUE(r.stats.conserved());
  const auto& p = r.trace.packets[0];
  EXPECT_EQ(p.ts, 0.125);
  EXPECT_EQ(p.ft.src_ip, 167772161u);
  EXPECT_EQ(p.ft.dst_ip, 3232235777u);
  EXPECT_EQ(p.ft.src_port, 443);
  EXPECT_EQ(p.ft.dst_port, 51514);
  EXPECT_EQ(p.ft.proto, traffic::kProtoTcp);
  EXPECT_EQ(p.length, 1500);
  EXPECT_EQ(p.ttl, 64);
  EXPECT_EQ(p.flags, traffic::TcpFlag::kSyn);
  EXPECT_FALSE(p.malicious);
  EXPECT_EQ(p.flow_id, 1u);
}

TEST(IngestCsv, QuarantinesByCategory) {
  const std::string csv = header_line() +
                          "0.1,1,2,3\n" +                                          // short
                          "0.2,1,2,3,4,6,5,6,1,0,1,extra\n" +                      // extra
                          "zz,1,2,3,4,6,5,6,1,0,1\n" +                             // bad ts
                          "0.3,1,2,3,4,47,5,6,1,0,1\n" +                           // proto
                          "0.4,1,2,3,4,6,5,6,9,0,1\n" +                            // flags
                          "0.5,1,2,3,4,6,5,6,1,2,1\n" +                            // malicious
                          valid_row(0.6);
  const io::TraceReader reader;
  const auto r = reader.read_buffer(csv);
  EXPECT_EQ(r.stats.offered, 7u);
  EXPECT_EQ(r.stats.accepted, 1u);
  EXPECT_EQ(r.stats.quarantined, 6u);
  EXPECT_TRUE(r.stats.conserved());
  EXPECT_EQ(cat(r.stats, io::IngestErrorCategory::kTruncated), 1u);
  EXPECT_EQ(cat(r.stats, io::IngestErrorCategory::kBadField), 2u);
  EXPECT_EQ(cat(r.stats, io::IngestErrorCategory::kUnsupported), 1u);
  EXPECT_EQ(cat(r.stats, io::IngestErrorCategory::kRangeViolation), 2u);
  ASSERT_EQ(r.quarantine.size(), 6u);
  EXPECT_EQ(r.quarantine[0].category, io::IngestErrorCategory::kTruncated);
  EXPECT_EQ(r.quarantine[0].record_index, 0u);
  EXPECT_EQ(r.quarantine[0].snippet, "0.1,1,2,3");
}

TEST(IngestCsv, StrictNumericParse) {
  // from_chars strictness: leading space, '+', hex, trailing junk all fail.
  const std::string csv = header_line() +
                          "0.1, 1,2,3,4,6,5,6,1,0,1\n" +
                          "0.1,+1,2,3,4,6,5,6,1,0,1\n" +
                          "0.1,0x1,2,3,4,6,5,6,1,0,1\n" +
                          "0.1,1z,2,3,4,6,5,6,1,0,1\n" +
                          "0.1,99999999999999999999,2,3,4,6,5,6,1,0,1\n" +
                          "inf,1,2,3,4,6,5,6,1,0,1\n";
  const io::TraceReader reader;
  const auto r = reader.read_buffer(csv);
  EXPECT_EQ(r.stats.accepted, 0u);
  EXPECT_EQ(r.stats.quarantined, 6u);
  EXPECT_TRUE(r.stats.conserved());
}

TEST(IngestCsv, MissingHeaderIsContainerError) {
  const io::TraceReader reader;
  const auto r = reader.read_buffer("0.1,1,2,3,4,6,5,6,1,0,1\n");
  EXPECT_FALSE(r.container_ok);
  EXPECT_EQ(cat(r.stats, io::IngestErrorCategory::kContainer), 1u);
  EXPECT_TRUE(r.stats.conserved());
}

TEST(IngestCsv, TimestampClampingIsCountedAndMonotone) {
  const std::string csv =
      header_line() + valid_row(-1.0) + valid_row(0.5) + valid_row(0.25) + valid_row(0.75);
  const io::TraceReader reader;
  const auto r = reader.read_buffer(csv);
  ASSERT_EQ(r.stats.accepted, 4u);
  EXPECT_EQ(r.stats.timestamps_clamped, 2u);  // the -1.0 and the 0.25 regression
  EXPECT_EQ(r.trace.packets[0].ts, 0.0);
  EXPECT_EQ(r.trace.packets[2].ts, 0.5);  // clamped up to the running max
  double prev = 0.0;
  for (const auto& p : r.trace.packets) {
    EXPECT_GE(p.ts, prev);
    prev = p.ts;
  }
}

TEST(IngestCsv, StrictModeQuarantinesRegressions) {
  io::TraceReaderConfig cfg;
  cfg.clamp_timestamps = false;
  const io::TraceReader reader(cfg);
  const auto r = reader.read_buffer(header_line() + valid_row(0.5) + valid_row(0.25));
  EXPECT_EQ(r.stats.accepted, 1u);
  EXPECT_EQ(cat(r.stats, io::IngestErrorCategory::kRangeViolation), 1u);
}

TEST(IngestCsv, BudgetAndOversizeDegradeGracefully) {
  io::TraceReaderConfig cfg;
  cfg.limits.max_records = 2;
  cfg.limits.max_record_bytes = 96;
  const io::TraceReader reader(cfg);
  std::string big = valid_row(0.3);
  big.insert(big.size() - 1, std::string(80, '0'));  // blow the row budget
  const auto r =
      reader.read_buffer(header_line() + valid_row(0.1) + valid_row(0.2) + big + valid_row(0.4));
  EXPECT_EQ(r.stats.accepted, 2u);
  EXPECT_EQ(cat(r.stats, io::IngestErrorCategory::kOversized), 1u);
  EXPECT_EQ(cat(r.stats, io::IngestErrorCategory::kBudget), 1u);
  EXPECT_TRUE(r.stats.conserved());
}

TEST(IngestCsv, RoundTripIsBitExact) {
  const traffic::Trace t = small_trace(7, 5, 0xC5Full);
  const io::TraceReader reader;
  const auto r = reader.read_buffer(io::trace_to_csv(t));
  ASSERT_EQ(r.stats.accepted, t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(r.trace.packets[i].ts, t.packets[i].ts);  // %.17g: bit-exact
    EXPECT_EQ(r.trace.packets[i].ft, t.packets[i].ft);
    EXPECT_EQ(r.trace.packets[i].length, t.packets[i].length);
    EXPECT_EQ(r.trace.packets[i].flow_id, t.packets[i].flow_id);
  }
  // And the writer is the reader's inverse on its own output.
  EXPECT_EQ(io::trace_to_csv(r.trace), io::trace_to_csv(t));
}

TEST(IngestCsv, MetricsCountersMatchStats) {
  obs::Registry reg;
  io::TraceReaderConfig cfg;
  cfg.metrics = &reg;
  const io::TraceReader reader(cfg);
  const auto r = reader.read_buffer(header_line() + valid_row(0.1) + "garbage\n");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.scalars.at("ingest.offered"), 2.0);
  EXPECT_EQ(snap.scalars.at("ingest.accepted"), 1.0);
  EXPECT_EQ(snap.scalars.at("ingest.quarantined"), 1.0);
  EXPECT_EQ(snap.scalars.at("ingest.quarantine.truncated"),
            static_cast<double>(cat(r.stats, io::IngestErrorCategory::kTruncated)));
}

// ---------------------------------------------------------------------------
// pcap reader

TEST(IngestPcap, MatchesLegacyReaderOnCleanCapture) {
  const traffic::Trace t = small_trace(5, 4, 0x9CA9ull);
  std::ostringstream os;
  traffic::write_pcap(os, t);
  const std::string bytes = os.str();

  std::istringstream is(bytes);
  const traffic::Trace legacy = traffic::read_pcap(is);

  const io::TraceReader reader;  // kAuto: magic routes to pcap
  const auto r = reader.read_buffer(bytes);
  ASSERT_TRUE(r.container_ok);
  ASSERT_EQ(r.stats.accepted, legacy.size());
  EXPECT_EQ(r.stats.quarantined, 0u);
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(r.trace.packets[i].ft, legacy.packets[i].ft);
    EXPECT_EQ(r.trace.packets[i].length, legacy.packets[i].length);
  }
}

TEST(IngestPcap, TruncatedAndBadMagic) {
  const traffic::Trace t = small_trace(2, 2, 0x7u);
  std::ostringstream os;
  traffic::write_pcap(os, t);
  std::string bytes = os.str();
  bytes.resize(bytes.size() - 7);  // cut the last record's body

  const io::TraceReader reader;
  const auto r = reader.read_buffer(bytes);
  EXPECT_TRUE(r.container_ok);
  EXPECT_EQ(r.stats.accepted, t.size() - 1);
  EXPECT_EQ(cat(r.stats, io::IngestErrorCategory::kTruncated), 1u);
  EXPECT_TRUE(r.stats.conserved());

  std::string bad = os.str();
  bad[0] = '\x42';
  const auto rb = reader.read_buffer(bad);
  // Magic no longer matches -> auto-detected as CSV -> header mismatch.
  EXPECT_FALSE(rb.container_ok);
  EXPECT_EQ(cat(rb.stats, io::IngestErrorCategory::kContainer), 1u);
}

TEST(IngestPcap, RuntOrigLenDoesNotUnderflow) {
  // IPv4 total length 0 forces the orig_len fallback; orig_len below the
  // Ethernet header must clamp to kBadLength, not wrap to ~64K.
  traffic::Packet p;
  const std::string frame = [] {
    traffic::Trace t;
    traffic::Packet q;
    q.ft = {1, 2, 3, 4, traffic::kProtoTcp};
    q.length = 100;
    t.packets.push_back(q);
    std::ostringstream os;
    traffic::write_pcap(os, t);
    const std::string bytes = os.str();
    return bytes.substr(traffic::kPcapGlobalHeaderLen + traffic::kPcapRecordHeaderLen);
  }();
  std::string zeroed = frame;
  zeroed[16] = zeroed[17] = '\0';  // IPv4 total-length field
  const auto st = traffic::parse_pcap_record(0, 0, 5, zeroed, p);
  EXPECT_EQ(st, traffic::PcapRecordStatus::kBadLength);
  const auto ok = traffic::parse_pcap_record(0, 0, 114, zeroed, p);
  EXPECT_EQ(ok, traffic::PcapRecordStatus::kOk);
  EXPECT_EQ(p.length, 100);  // orig 114 - 14 B Ethernet framing
}

// ---------------------------------------------------------------------------
// Quarantine ring

TEST(QuarantineRing, BoundedWithEvictionAccounting) {
  io::QuarantineRing ring(3, 4);
  for (std::uint64_t i = 0; i < 5; ++i) {
    // append(), not "d" + to_string(i): GCC 12 raises a false -Wrestrict
    // on the inlined operator+(const char*, string&&).
    ring.push(io::IngestErrorCategory::kBadField, i, std::string("d").append(std::to_string(i)),
              "abcdefgh");
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.evicted(), 2u);
  EXPECT_EQ(ring[0].record_index, 2u);  // oldest survivor
  EXPECT_EQ(ring[2].record_index, 4u);
  EXPECT_EQ(ring[0].snippet, "abcd");  // snippet budget enforced
}

// ---------------------------------------------------------------------------
// SPSC ring

TEST(SpscRing, SingleThreadedFifo) {
  io::SpscRing<int> ring(3);  // rounds up to 4
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));  // empty
}

TEST(SpscRing, ThreadedStressConservesEveryElement) {
  constexpr std::size_t kN = 200000;
  io::SpscRing<std::size_t> ring(64);
  std::thread producer([&] {
    for (std::size_t i = 0; i < kN; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::size_t expected = 0;
  std::size_t v = 0;
  while (expected < kN) {
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expected);  // order preserved, nothing lost or duplicated
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(ring.try_pop(v));
}

// Bulk ops against a model queue: partial pushes and pops (the ring takes
// only what fits, gives only what it holds) interleaved with single-element
// ops keep FIFO order across many wrap-arounds of a small ring.
TEST(SpscRing, BulkOpsKeepFifoAcrossWrapAround) {
  io::SpscRing<int> ring(8);
  ml::Rng rng(0xB01Cull);
  std::vector<int> src(12), dst(12);
  int next_in = 0, next_out = 0;
  for (int step = 0; step < 4000; ++step) {
    const int held = next_in - next_out;
    if (rng.index(2) == 0) {
      const std::size_t want = rng.index(src.size() + 1);
      for (std::size_t i = 0; i < want; ++i) src[i] = next_in + static_cast<int>(i);
      const std::size_t n = ring.try_push_n(std::span<const int>(src.data(), want));
      ASSERT_EQ(n, std::min<std::size_t>(want, 8 - static_cast<std::size_t>(held)));
      next_in += static_cast<int>(n);
    } else if (rng.index(4) == 0) {
      int v = -1;
      if (held > 0) {
        ASSERT_TRUE(ring.try_pop(v));
        ASSERT_EQ(v, next_out++);
      } else {
        ASSERT_FALSE(ring.try_pop(v));
      }
    } else {
      const std::size_t want = rng.index(dst.size() + 1);
      const std::size_t n = ring.try_pop_n(std::span<int>(dst.data(), want));
      ASSERT_EQ(n, std::min<std::size_t>(want, static_cast<std::size_t>(held)));
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(dst[i], next_out++);
    }
  }
  EXPECT_GT(next_out, 1000);  // hundreds of wrap-arounds
}

// Two threads, random bulk sizes, a producer that parks on a full ring: at
// capacity 2 nearly every push waits, at 1024 the cached cursors carry most
// calls. Either way every element arrives once, in order.
TEST(SpscRing, ThreadedBulkStressConservesOrderAndCount) {
  for (const std::size_t capacity : {std::size_t{2}, std::size_t{1024}}) {
    SCOPED_TRACE(capacity);
    constexpr std::size_t kN = 300000;
    io::SpscRing<std::size_t> ring(capacity);
    run_within_deadline(std::chrono::seconds(60), "bulk stress", [&] {
      std::thread producer([&] {
        ml::Rng rng(0x5EEDull + capacity);
        std::vector<std::size_t> chunk(64);
        std::size_t next = 0;
        while (next < kN) {
          const std::size_t want = std::min(kN - next, 1 + rng.index(chunk.size()));
          for (std::size_t i = 0; i < want; ++i) chunk[i] = next + i;
          std::span<const std::size_t> rest(chunk.data(), want);
          while (!rest.empty()) {
            const std::size_t n = ring.try_push_n(rest);
            if (n == 0) ring.wait_while_full();
            rest = rest.subspan(n);
          }
          next += want;
        }
        ring.close();
      });
      ml::Rng rng(0xC0Full + capacity);
      std::vector<std::size_t> out(64);
      std::size_t expected = 0, out_of_order = 0;
      for (;;) {
        // Close protocol: an empty pop after observing closed() means the
        // stream is finished.
        const bool closed = ring.closed();
        const std::size_t n =
            ring.try_pop_n(std::span<std::size_t>(out.data(), 1 + rng.index(out.size())));
        for (std::size_t i = 0; i < n; ++i) out_of_order += out[i] != expected++ ? 1 : 0;
        if (n > 0) continue;
        if (closed) break;
        std::this_thread::yield();
      }
      producer.join();
      EXPECT_EQ(out_of_order, 0u);
      EXPECT_EQ(expected, kN);
    });
  }
}

// A producer parked on a full ring is woken by the consumer's next pop —
// single and bulk — with no timed sleep in the protocol to paper over a
// lost wake-up.
TEST(SpscRing, ParkedProducerIsWokenByAPop) {
  for (const bool bulk : {false, true}) {
    SCOPED_TRACE(bulk ? "try_pop_n" : "try_pop");
    io::SpscRing<int> ring(4);
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
    std::atomic<bool> resumed{false};
    run_within_deadline(std::chrono::seconds(30), "parked producer", [&] {
      std::thread producer([&] {
        ring.wait_while_full();
        resumed.store(true);
        EXPECT_TRUE(ring.try_push(4));
      });
      // Long past the library's brief spin: the producer is parked now.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      EXPECT_FALSE(resumed.load());
      int v = -1;
      if (bulk) {
        std::array<int, 2> two{};
        EXPECT_EQ(ring.try_pop_n(std::span<int>(two)), 2u);
        v = two[0];
      } else {
        EXPECT_TRUE(ring.try_pop(v));
      }
      EXPECT_EQ(v, 0);
      producer.join();
    });
    EXPECT_TRUE(resumed.load());
  }
}

TEST(SpscRing, PumpIsTransparent) {
  const traffic::Trace t = small_trace(11, 6, 0xF00Dull);
  io::RingPumpStats stats;
  const traffic::Trace out = io::pump_through_ring(t, 16, stats);
  EXPECT_EQ(stats.pushed, stats.popped);
  EXPECT_EQ(stats.pushed, t.size());
  EXPECT_EQ(io::trace_to_csv(out), io::trace_to_csv(t));
}

// ---------------------------------------------------------------------------
// Overload gate

TEST(Overload, DisabledAndInfiniteDrainPassThrough) {
  const traffic::Trace t = small_trace(5, 5, 0xABull);
  io::OverloadConfig cfg;  // disabled
  auto r = io::shed_overload(t, cfg);
  EXPECT_EQ(r.stats.admitted, t.size());
  EXPECT_EQ(r.stats.shed, 0u);
  EXPECT_EQ(io::trace_to_csv(r.admitted), io::trace_to_csv(t));

  cfg.enabled = true;
  cfg.drain_rate_pps = 0.0;  // infinite drain
  r = io::shed_overload(t, cfg);
  EXPECT_EQ(r.stats.admitted, t.size());
  EXPECT_EQ(io::trace_to_csv(r.admitted), io::trace_to_csv(t));
}

TEST(Overload, ShedPolicySemantics) {
  // 4 packets at the same instant, capacity 2, drain too slow to help:
  // the first two queue, the rest hit the policy.
  traffic::Trace t;
  for (int i = 0; i < 4; ++i) {
    traffic::Packet p;
    p.ts = 0.0;
    p.ft = {static_cast<std::uint32_t>(100 + i), 1, 1, 1, traffic::kProtoTcp};
    p.flow_id = static_cast<std::uint32_t>(i);
    t.packets.push_back(p);
  }
  io::OverloadConfig cfg;
  cfg.enabled = true;
  cfg.queue_capacity = 2;
  cfg.drain_rate_pps = 1.0;

  cfg.policy = io::ShedPolicy::kDropNewest;
  auto r = io::shed_overload(t, cfg);
  EXPECT_EQ(r.stats.shed_newest, 2u);
  ASSERT_EQ(r.admitted.size(), 2u);
  EXPECT_EQ(r.admitted.packets[0].flow_id, 0u);  // earliest arrivals kept
  EXPECT_EQ(r.admitted.packets[1].flow_id, 1u);

  cfg.policy = io::ShedPolicy::kDropOldest;
  r = io::shed_overload(t, cfg);
  EXPECT_EQ(r.stats.shed_oldest, 2u);
  ASSERT_EQ(r.admitted.size(), 2u);
  EXPECT_EQ(r.admitted.packets[0].flow_id, 2u);  // latest arrivals kept
  EXPECT_EQ(r.admitted.packets[1].flow_id, 3u);

  cfg.policy = io::ShedPolicy::kFlowHash;
  cfg.flow_shed_fraction = 1.0;  // every flow in the shed set
  r = io::shed_overload(t, cfg);
  EXPECT_EQ(r.stats.shed_flow_hash, 2u);
  EXPECT_EQ(r.admitted.packets[0].flow_id, 0u);  // saturation sheds arrivals only

  cfg.flow_shed_fraction = 0.0;  // nobody in the shed set -> displaces oldest
  r = io::shed_overload(t, cfg);
  EXPECT_EQ(r.stats.shed_flow_hash, 0u);
  EXPECT_EQ(r.stats.shed_oldest, 2u);
  EXPECT_TRUE(r.stats.conserved());
}

TEST(Overload, FlowHashSheddingIsFlowCoherent) {
  const traffic::Trace t = small_trace(40, 8, 0xBEEFull);
  io::OverloadConfig cfg;
  cfg.enabled = true;
  cfg.queue_capacity = 8;
  cfg.drain_rate_pps = 500.0;
  cfg.policy = io::ShedPolicy::kFlowHash;
  cfg.flow_shed_fraction = 0.5;
  const auto r = io::shed_overload(t, cfg);
  ASSERT_GT(r.stats.shed_flow_hash, 0u);
  EXPECT_TRUE(r.stats.conserved());
  // Determinism: the same trace sheds the same packets again.
  const auto r2 = io::shed_overload(t, cfg);
  EXPECT_EQ(r.stats, r2.stats);
  EXPECT_EQ(io::trace_to_csv(r.admitted), io::trace_to_csv(r2.admitted));
}

TEST(Overload, RandomScheduleConservesAtEveryShardCount) {
  TinyModel m;
  ml::Rng rng(0x5EED5ull);
  for (int round = 0; round < 3; ++round) {
    const traffic::Trace t = small_trace(20 + 7 * static_cast<std::size_t>(round), 6,
                                         0x100ull + static_cast<std::uint64_t>(round));
    io::IngestReplayConfig icfg;
    icfg.overload.enabled = true;
    icfg.overload.queue_capacity = 4 + rng.index(60);
    icfg.overload.drain_rate_pps = 100.0 + 900.0 * rng.uniform(0.0, 1.0);
    icfg.overload.policy = static_cast<io::ShedPolicy>(rng.index(3));
    icfg.chaos.record_truncate_rate = 0.03;
    icfg.chaos.record_corrupt_rate = 0.03;
    icfg.chaos.batch_duplicate_rate = 0.05;
    icfg.chaos.batch_reorder_rate = 0.05;

    io::IngestReplayResult first;
    bool have_first = false;
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      switchsim::ReplayConfig rc;
      rc.shards = shards;
      const auto out = io::ingest_replay_sharded(t, icfg, switchsim::PipelineConfig{},
                                                 m.dm, rc);
      EXPECT_EQ(io::audit_ingest_conservation(out), "");
      EXPECT_TRUE(switchsim::AuditSimConservation(out.replay.stats));
      if (!have_first) {
        first = out;
        have_first = true;
      } else {
        // The ingest chain sits upstream of sharding: its accounting must
        // be bit-identical at every shard count.
        EXPECT_EQ(out.ingest, first.ingest);
        EXPECT_EQ(out.overload, first.overload);
        EXPECT_EQ(out.chaos, first.chaos);
        EXPECT_EQ(out.replay.stats.packets, first.replay.stats.packets);
      }
    }
  }
}

TEST(Overload, ConfigValidation) {
  io::OverloadConfig cfg;
  cfg.queue_capacity = 0;
  EXPECT_NE(io::validate_config(cfg), "");
  cfg.queue_capacity = 8;
  cfg.drain_rate_pps = std::nan("");
  EXPECT_NE(io::validate_config(cfg), "");
  cfg.drain_rate_pps = 10.0;
  cfg.flow_shed_fraction = 1.5;
  EXPECT_NE(io::validate_config(cfg), "");
  cfg.flow_shed_fraction = 0.5;
  EXPECT_EQ(io::validate_config(cfg), "");
  cfg.queue_capacity = 0;
  EXPECT_THROW(io::OverloadGate{cfg}, switchsim::ConfigError);
}

// ---------------------------------------------------------------------------
// Chaos mangler

TEST(Chaos, OffIsIdentity) {
  const std::string csv = io::trace_to_csv(small_trace(6, 4, 0x11ull));
  switchsim::FaultConfig faults;  // ingest faults all off
  io::ChaosStats stats;
  EXPECT_EQ(io::mangle_csv(csv, faults, 16, stats), csv);
}

TEST(Chaos, DeterministicAndAccounted) {
  const std::string csv = io::trace_to_csv(small_trace(30, 6, 0x22ull));
  switchsim::FaultConfig faults;
  faults.record_truncate_rate = 0.1;
  faults.record_corrupt_rate = 0.1;
  faults.batch_duplicate_rate = 0.2;
  faults.batch_reorder_rate = 0.2;
  faults.bursts.push_back({0.0, 0.05, 2.0});

  io::ChaosStats a, b;
  const std::string ma = io::mangle_csv(csv, faults, 8, a);
  const std::string mb = io::mangle_csv(csv, faults, 8, b);
  EXPECT_EQ(ma, mb);  // pure function of (csv, seed, batch size)
  EXPECT_EQ(a, b);
  EXPECT_GT(a.truncated + a.corrupted + a.batches_duplicated + a.batches_reordered, 0u);
  EXPECT_GT(a.burst_copies, 0u);
  EXPECT_EQ(a.records_in, 180u);
  // The header survives: the mangled stream still parses with conservation.
  const io::TraceReader reader;
  const auto r = reader.read_buffer(ma);
  EXPECT_TRUE(r.container_ok);
  EXPECT_EQ(r.stats.offered, a.records_out);
  EXPECT_TRUE(r.stats.conserved());
}

TEST(Chaos, IndependentStreams) {
  // Enabling batch faults must not change which records get truncated.
  const std::string csv = io::trace_to_csv(small_trace(25, 4, 0x33ull));
  switchsim::FaultConfig t_only;
  t_only.record_truncate_rate = 0.2;
  switchsim::FaultConfig both = t_only;
  both.batch_duplicate_rate = 0.3;
  io::ChaosStats sa, sb;
  (void)io::mangle_csv(csv, t_only, 8, sa);
  (void)io::mangle_csv(csv, both, 8, sb);
  EXPECT_EQ(sa.truncated, sb.truncated);
}

// ---------------------------------------------------------------------------
// Digest codec

TEST(DigestCodec, RoundTripAndRejection) {
  switchsim::Digest d;
  d.ft = {0x0A000001u, 0xC0A80101u, 443, 51514, traffic::kProtoTcp};
  d.label = 1;
  const std::string wire = io::encode_digest(d);
  ASSERT_EQ(wire.size(), switchsim::Digest::kBytes);
  switchsim::Digest back;
  ASSERT_TRUE(io::decode_digest(wire, back));
  EXPECT_EQ(back.ft, d.ft);
  EXPECT_EQ(back.label, 1);

  std::string bad = wire;
  bad[12] = 47;  // GRE
  EXPECT_FALSE(io::decode_digest(bad, back));
  bad = wire;
  bad[13] = 7;  // label out of range
  EXPECT_FALSE(io::decode_digest(bad, back));
  EXPECT_FALSE(io::decode_digest(wire.substr(0, 13), back));
}

TEST(DigestCodec, StreamConservation) {
  switchsim::Digest d;
  d.ft = {1, 2, 3, 4, traffic::kProtoUdp};
  std::string stream = io::encode_digest(d) + io::encode_digest(d);
  std::string bad = io::encode_digest(d);
  bad[12] = 99;
  stream += bad;
  stream += io::encode_digest(d).substr(0, 5);  // trailing fragment

  io::DigestDecodeStats stats;
  const auto digests = io::decode_digest_stream(stream, stats);
  EXPECT_EQ(digests.size(), 2u);
  EXPECT_EQ(stats.offered, 4u);
  EXPECT_EQ(stats.decoded, 2u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_TRUE(stats.conserved());
}

// ---------------------------------------------------------------------------
// In-memory boundary + byte-identity parity

TEST(IngestBoundary, ValidTracePassesThroughUntouched) {
  const traffic::Trace t = small_trace(9, 5, 0x44ull);
  const auto r = io::ingest_trace(t);
  EXPECT_EQ(r.stats.quarantined, 0u);
  EXPECT_EQ(r.stats.timestamps_clamped, 0u);
  EXPECT_EQ(io::trace_to_csv(r.trace), io::trace_to_csv(t));
}

TEST(IngestBoundary, DirtyPacketsQuarantined) {
  traffic::Trace t = small_trace(3, 2, 0x55ull);
  t.packets[1].ft.proto = 47;
  t.packets[3].ts = std::nan("");
  const auto r = io::ingest_trace(t);
  EXPECT_EQ(r.stats.accepted, t.size() - 2);
  EXPECT_EQ(cat(r.stats, io::IngestErrorCategory::kUnsupported), 1u);
  EXPECT_EQ(cat(r.stats, io::IngestErrorCategory::kRangeViolation), 1u);
  EXPECT_TRUE(r.stats.conserved());
}

TEST(IngestBoundary, HardenedReplayMatchesPlainReplayExactly) {
  TinyModel m;
  const traffic::Trace t = small_trace(20, 6, 0x66ull);
  switchsim::ReplayConfig rc;
  rc.shards = 2;
  const auto plain = switchsim::replay_sharded(t, switchsim::PipelineConfig{}, m.dm, rc);
  io::IngestReplayConfig icfg;  // hardening on, chaos/overload off
  const auto hard =
      io::ingest_replay_sharded(t, icfg, switchsim::PipelineConfig{}, m.dm, rc);
  EXPECT_TRUE(hard.replay.stats == plain.stats);
  // Same through the serialized untrusted-bytes entry.
  const auto bytes = io::ingest_replay_sharded(io::trace_to_csv(t), icfg,
                                               switchsim::PipelineConfig{}, m.dm, rc);
  EXPECT_TRUE(bytes.replay.stats == plain.stats);
}

TEST(IngestBoundary, FleetChainConserves) {
  TinyModel m;
  const traffic::Trace t = small_trace(15, 5, 0x77ull);
  io::IngestReplayConfig icfg;
  icfg.overload.enabled = true;
  icfg.overload.queue_capacity = 16;
  icfg.overload.drain_rate_pps = 400.0;
  icfg.chaos.record_corrupt_rate = 0.05;
  switchsim::FleetConfig fc;
  fc.devices = 2;
  fc.replay.shards = 2;
  const auto out =
      io::ingest_replay_fleet(t, icfg, switchsim::PipelineConfig{}, m.dm, fc);
  EXPECT_EQ(io::audit_ingest_conservation(out), "");
}

// ---------------------------------------------------------------------------
// Config validation at construction (switchsim structs)

TEST(ConfigValidation, ControlPlaneRejectsBadValues) {
  switchsim::BlacklistTable bl(64);
  switchsim::ControlPlaneConfig cfg;
  cfg.control_latency_s = -0.5;
  try {
    switchsim::Controller c(bl, cfg);
    FAIL() << "negative latency accepted";
  } catch (const switchsim::ConfigError& e) {
    EXPECT_EQ(e.structure(), "ControlPlaneConfig");
    EXPECT_EQ(e.field(), "control_latency_s");
  }

  cfg = {};
  cfg.faults.digest_loss_rate = 1.5;
  EXPECT_THROW(switchsim::Controller(bl, cfg), switchsim::ConfigError);
  cfg = {};
  cfg.faults.digest_delay_s = std::nan("");
  EXPECT_THROW(switchsim::Controller(bl, cfg), switchsim::ConfigError);
  cfg = {};
  cfg.retry_backoff_cap_s = cfg.retry_backoff_s / 2.0;  // inverted backoff
  EXPECT_THROW(switchsim::Controller(bl, cfg), switchsim::ConfigError);
  cfg = {};
  cfg.faults.bursts.push_back({0.0, -1.0, 2.0});  // negative burst duration
  EXPECT_THROW(switchsim::Controller(bl, cfg), switchsim::ConfigError);
  cfg = {};
  EXPECT_NO_THROW(switchsim::Controller(bl, cfg));
}

TEST(ConfigValidation, ReplayRejectsZeroShards) {
  switchsim::ReplayConfig rc;
  rc.shards = 0;
  EXPECT_NE(switchsim::validate_config(rc), "");
  const traffic::Trace t = small_trace(2, 2, 0x1ull);
  try {
    (void)switchsim::shard_trace(t, rc);
    FAIL() << "zero shards accepted";
  } catch (const switchsim::ConfigError& e) {
    EXPECT_EQ(e.structure(), "ReplayConfig");
    EXPECT_EQ(e.field(), "shards");
  }
  TinyModel m;
  EXPECT_THROW((void)switchsim::replay_sharded(t, switchsim::PipelineConfig{}, m.dm, rc),
               switchsim::ConfigError);
}

TEST(ConfigValidation, FleetRejectsBadValues) {
  switchsim::FleetConfig fc;
  fc.devices = 0;
  EXPECT_NE(switchsim::validate_config(fc), "");
  TinyModel m;
  const traffic::Trace t = small_trace(2, 2, 0x2ull);
  EXPECT_THROW((void)switchsim::replay_fleet(t, switchsim::PipelineConfig{}, m.dm, fc),
               switchsim::ConfigError);

  fc = {};
  fc.faults.crash_rate = -0.1;
  EXPECT_NE(switchsim::validate_config(fc), "");
  fc = {};
  fc.faults.check_interval_s = 0.0;
  EXPECT_NE(switchsim::validate_config(fc), "");
  fc = {};
  fc.control.batch_size = 0;
  EXPECT_NE(switchsim::validate_config(fc), "");
  fc = {};
  fc.replay.shards = 0;
  EXPECT_NE(switchsim::validate_config(fc), "");
  fc = {};
  EXPECT_EQ(switchsim::validate_config(fc), "");
}
