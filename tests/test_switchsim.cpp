#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "switchsim/faults.hpp"
#include "switchsim/flow_state.hpp"
#include "switchsim/pipeline.hpp"
#include "switchsim/registers.hpp"
#include "switchsim/resources.hpp"
#include "switchsim/tables.hpp"
#include "switchsim/timing.hpp"

namespace iguard::switchsim {
namespace {

traffic::Packet mk(double ts, std::uint16_t len, std::uint32_t src = 0x0A000001,
                   std::uint16_t sport = 1000, bool mal = false) {
  traffic::Packet p;
  p.ts = ts;
  p.ft = {src, 0x0A000002, sport, 80, traffic::kProtoTcp};
  p.length = len;
  p.ttl = 64;
  p.malicious = mal;
  return p;
}

// --- IntFlowState ------------------------------------------------------------

TEST(IntFlowState, MatchesFloatExtractorOnIntegerInputs) {
  // With microsecond-aligned timestamps and integer sizes, the integer
  // pipeline must agree with the float extractor on count/size features and
  // be within integer-division error on the rest.
  IntFlowState st;
  features::FlowStats fs;
  const double times[] = {0.0, 0.25, 0.75, 1.0};
  const std::uint16_t sizes[] = {100, 200, 300, 400};
  for (int i = 0; i < 4; ++i) {
    auto p = mk(times[i], sizes[i]);
    st.update(p, 1);
    fs.add(p, false);
  }
  const auto fi = st.finalize();
  const auto ff = features::finalize_features(fs, features::FeatureSet::kSwitch13);
  EXPECT_DOUBLE_EQ(fi[0], ff[0]);  // count
  EXPECT_DOUBLE_EQ(fi[1], ff[1]);  // total
  EXPECT_DOUBLE_EQ(fi[5], ff[5]);  // min
  EXPECT_DOUBLE_EQ(fi[6], ff[6]);  // max
  EXPECT_NEAR(fi[2], ff[2], 1.0);       // mean size (integer division)
  EXPECT_NEAR(fi[7], ff[7], 1e-5);      // mean ipd, seconds
  EXPECT_NEAR(fi[12], ff[12], 1e-6);    // duration
}

TEST(IntFlowState, ClearFeaturesKeepsLabelAndSig) {
  IntFlowState st;
  st.update(mk(0.0, 100), 42);
  st.label = 1;
  st.clear_features();
  EXPECT_EQ(st.pkt_count, 0u);
  EXPECT_EQ(st.label, 1);
  EXPECT_EQ(st.sig, 42u);
}

TEST(IntFlowState, SaturatingSumSquares) {
  IntFlowState st;
  auto p = mk(0.0, 1500);
  // Huge gaps to push the squared-IPD accumulator; must not wrap.
  for (int i = 0; i < 1000; ++i) {
    p.ts += 100.0;  // clamped to ~67 s internally
    st.update(p, 1);
  }
  EXPECT_GT(st.sum_sq_ipd_us, 0u);
  const auto f = st.finalize();
  for (double v : f) EXPECT_GE(v, 0.0);
}

TEST(ExtractSwitchFeatures, TruncatesAtThreshold) {
  traffic::Trace t;
  for (int i = 0; i < 20; ++i) t.packets.push_back(mk(0.1 * i, 100));
  const auto ds = extract_switch_features(t, 8, 0.0);
  ASSERT_EQ(ds.x.rows(), 3u);  // 8 + 8 + residual 4
  EXPECT_DOUBLE_EQ(ds.x(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(ds.x(2, 0), 4.0);
}

// --- FlowStore ---------------------------------------------------------------

TEST(FlowStore, InsertThenFind) {
  FlowStore store(64);
  const auto ft = mk(0.0, 100).ft;
  auto a1 = store.access(ft);
  EXPECT_TRUE(a1.inserted);
  a1.state->update(mk(0.0, 100), store.signature(ft));
  auto a2 = store.access(ft);
  EXPECT_TRUE(a2.found);
  EXPECT_EQ(a2.state, a1.state);
}

TEST(FlowStore, BidirectionalSameSlot) {
  FlowStore store(64);
  const auto fwd = mk(0.0, 100).ft;
  auto a1 = store.access(fwd);
  a1.state->update(mk(0.0, 100), store.signature(fwd));
  auto a2 = store.access(fwd.reversed());
  EXPECT_TRUE(a2.found);
  EXPECT_EQ(a2.state, a1.state);
}

TEST(FlowStore, CollisionWhenBothWaysFull) {
  FlowStore store(1);  // one slot per table: third distinct flow collides
  for (std::uint16_t sp = 1; sp <= 2; ++sp) {
    auto a = store.access(mk(0.0, 100, 0x0A000001, sp).ft);
    ASSERT_TRUE(a.inserted);
    a.state->update(mk(0.0, 100, 0x0A000001, sp), 1000 + sp);
  }
  auto c = store.access(mk(0.0, 100, 0x0A000001, 3).ft);
  EXPECT_TRUE(c.collision);
  EXPECT_EQ(store.occupied(), 2u);
}

TEST(FlowStore, AccessMatchesModuloIndexedReference) {
  // FlowStore indexes by mask when slots_per_table is a power of two and by
  // % otherwise; both must pick exactly the slot `h % n` picks. A reference
  // store replays the same accesses with % indexing; every access must
  // agree on the outcome, on sig == signature(ft), and on the slot (checked
  // by pointer offsets from the first slot seen in each table).
  constexpr std::uint64_t kSeed = 0x5117c4;  // FlowStore's default seed
  for (const std::size_t n : {std::size_t{4096}, std::size_t{1000}}) {
    SCOPED_TRACE(n);
    FlowStore store(n);
    std::vector<std::uint64_t> ref[2] = {std::vector<std::uint64_t>(n),
                                          std::vector<std::uint64_t>(n)};
    const IntFlowState* anchor[2] = {nullptr, nullptr};
    std::size_t anchor_idx[2] = {0, 0};
    SplitMix64 rng(n);
    for (int op = 0; op < 4 * static_cast<int>(n); ++op) {
      traffic::FiveTuple ft{static_cast<std::uint32_t>(rng.next()),
                            static_cast<std::uint32_t>(rng.next()),
                            static_cast<std::uint16_t>(rng.next()),
                            static_cast<std::uint16_t>(rng.next()), traffic::kProtoUdp};
      if (rng.chance(0.5)) ft = ft.reversed();
      std::uint64_t sig = traffic::bihash(ft, kSeed);
      sig = sig == 0 ? 1 : sig;
      const std::size_t idx[2] = {
          static_cast<std::size_t>(traffic::bihash(ft, kSeed ^ 0xA5A5A5A5ull) % n),
          static_cast<std::size_t>(traffic::bihash(ft, kSeed ^ 0x3C3C3C3Cull) % n)};
      int table = 0;
      bool found = false, inserted = false, collision = false;
      if (ref[0][idx[0]] == sig) {
        found = true;
      } else if (ref[1][idx[1]] == sig) {
        table = 1;
        found = true;
      } else if (ref[0][idx[0]] == 0) {
        inserted = true;
      } else if (ref[1][idx[1]] == 0) {
        table = 1;
        inserted = true;
      } else {
        collision = true;
      }

      const FlowStore::Access acc = store.access(ft);
      ASSERT_EQ(acc.sig, store.signature(ft));
      ASSERT_EQ(acc.sig, sig);
      ASSERT_EQ(acc.found, found);
      ASSERT_EQ(acc.inserted, inserted);
      ASSERT_EQ(acc.collision, collision);
      if (anchor[table] == nullptr) {
        anchor[table] = acc.state;
        anchor_idx[table] = idx[table];
      }
      ASSERT_EQ(acc.state - anchor[table],
                static_cast<std::ptrdiff_t>(idx[table]) -
                    static_cast<std::ptrdiff_t>(anchor_idx[table]));
      if (inserted) {
        traffic::Packet p;
        p.ft = ft;
        acc.state->update(p, acc.sig);
        ref[table][idx[table]] = sig;
      }
    }
    EXPECT_EQ(store.occupied(),
              static_cast<std::size_t>(std::count_if(ref[0].begin(), ref[0].end(),
                                                     [](std::uint64_t v) { return v != 0; }) +
                                       std::count_if(ref[1].begin(), ref[1].end(),
                                                     [](std::uint64_t v) { return v != 0; })));
  }
  EXPECT_THROW(FlowStore(FlowStore::kMaxSlotsPerTable + 1), std::invalid_argument);
}

// --- BlacklistTable / Controller ----------------------------------------------

TEST(Blacklist, InstallAndMatchBothDirections) {
  BlacklistTable bl(8);
  const auto ft = mk(0.0, 100).ft;
  EXPECT_FALSE(bl.contains(ft));
  bl.install(ft);
  EXPECT_TRUE(bl.contains(ft));
  EXPECT_TRUE(bl.contains(ft.reversed()));
}

TEST(Blacklist, FifoEviction) {
  BlacklistTable bl(2, EvictionPolicy::kFifo);
  const auto f1 = mk(0, 0, 1, 1).ft;
  const auto f2 = mk(0, 0, 2, 2).ft;
  const auto f3 = mk(0, 0, 3, 3).ft;
  bl.install(f1);
  bl.install(f2);
  bl.install(f3);  // evicts f1
  EXPECT_FALSE(bl.contains(f1));
  EXPECT_TRUE(bl.contains(f2));
  EXPECT_TRUE(bl.contains(f3));
  EXPECT_EQ(bl.evictions(), 1u);
}

TEST(Blacklist, LruEvictionRefreshesOnHit) {
  BlacklistTable bl(2, EvictionPolicy::kLru);
  const auto f1 = mk(0, 0, 1, 1).ft;
  const auto f2 = mk(0, 0, 2, 2).ft;
  const auto f3 = mk(0, 0, 3, 3).ft;
  bl.install(f1);
  bl.install(f2);
  EXPECT_TRUE(bl.contains(f1));  // refresh f1: f2 becomes LRU
  bl.install(f3);
  EXPECT_TRUE(bl.contains(f1));
  EXPECT_FALSE(bl.contains(f2));
}

TEST(Blacklist, LruInstallKeepsFifoQueueEmpty) {
  // Regression: the FIFO bookkeeping deque used to grow on every install
  // under LRU too, without ever being drained — unbounded memory on a
  // long-running table.
  BlacklistTable bl(2, EvictionPolicy::kLru);
  for (std::uint16_t i = 1; i <= 100; ++i) bl.install(mk(0, 0, i, i).ft);
  EXPECT_EQ(bl.size(), 2u);
  EXPECT_EQ(bl.order_queue_size(), 0u);
  EXPECT_EQ(bl.evictions(), 98u);
}

TEST(Blacklist, FifoQueueBoundedByLiveEntries) {
  BlacklistTable bl(2, EvictionPolicy::kFifo);
  for (std::uint16_t i = 1; i <= 100; ++i) bl.install(mk(0, 0, i, i).ft);
  EXPECT_EQ(bl.size(), 2u);
  // Evictions pop as installs push: the queue tracks live entries.
  EXPECT_EQ(bl.order_queue_size(), 2u);
}

TEST(Blacklist, FifoMatchesDequeReference) {
  // The flat table (open addressing + install-order ring) against the
  // container model it replaced: a deque of live keys in install order and
  // a hash set of members. Random installs, duplicate installs and lookups
  // at capacities 1, 2 and 16; membership, size, ring length and evictions
  // must agree after every operation.
  for (const std::size_t cap : {std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
    SCOPED_TRACE(cap);
    BlacklistTable bl(cap, EvictionPolicy::kFifo);
    std::deque<std::uint64_t> order;
    std::unordered_set<std::uint64_t> live;
    std::size_t ref_evictions = 0;
    SplitMix64 rng(0xF1F0 + cap);
    for (int op = 0; op < 5000; ++op) {
      const auto ft = mk(0, 0, static_cast<std::uint32_t>(1 + rng.next() % 48),
                         static_cast<std::uint16_t>(1 + rng.next() % 4))
                          .ft;
      const std::uint64_t k = BlacklistTable::flow_key(ft);
      if (rng.chance(0.4)) {
        ASSERT_EQ(bl.contains(rng.chance(0.5) ? ft : ft.reversed()), live.contains(k));
      } else {
        const bool fresh = !live.contains(k);
        if (fresh) {
          if (live.size() >= cap) {
            live.erase(order.front());
            order.pop_front();
            ++ref_evictions;
          }
          live.insert(k);
          order.push_back(k);
        }
        ASSERT_EQ(bl.install(ft), fresh);
      }
      ASSERT_EQ(bl.size(), live.size());
      ASSERT_EQ(bl.order_queue_size(), order.size());
      ASSERT_EQ(bl.evictions(), ref_evictions);
    }
    for (std::uint32_t src = 1; src <= 48; ++src) {
      for (std::uint16_t sp = 1; sp <= 4; ++sp) {
        const auto ft = mk(0, 0, src, sp).ft;
        EXPECT_EQ(bl.contains(ft), live.contains(BlacklistTable::flow_key(ft)));
      }
    }
  }
}

TEST(Blacklist, CapacityEdges) {
  // Capacity 0 keeps an empty one-slot table; past kMaxCapacity the
  // constructor refuses before allocating.
  BlacklistTable bl(0);
  EXPECT_FALSE(bl.install(mk(0, 0, 1, 1).ft));
  EXPECT_FALSE(bl.contains(mk(0, 0, 1, 1).ft));
  EXPECT_EQ(bl.size(), 0u);
  EXPECT_THROW(BlacklistTable(BlacklistTable::kMaxCapacity + 1), std::invalid_argument);
}

TEST(FlowKeySet, MatchesUnorderedSetThroughDoublings) {
  // Key 0 is the empty-slot marker internally, so it is covered explicitly;
  // 3000 distinct keys force several doublings from the initial table.
  FlowKeySet set;
  std::unordered_set<std::uint64_t> ref;
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(42));
  SplitMix64 rng(0x5E7);
  std::vector<std::uint64_t> keys = {0, 1, 2, 16, 32, ~std::uint64_t{0}};
  for (int i = 0; i < 3000; ++i) keys.push_back(rng.next());
  // Small sequential keys land in adjacent home slots: long probe runs.
  for (std::uint64_t k = 100; k < 200; ++k) keys.push_back(k);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    set.insert(keys[i]);
    ref.insert(keys[i]);
    if (i % 7 == 0) set.insert(keys[i / 2]);  // duplicates are no-ops
    ASSERT_EQ(set.size(), ref.size());
  }
  for (const std::uint64_t k : keys) EXPECT_TRUE(set.contains(k)) << k;
  SplitMix64 other(0xD1FF);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = other.next();
    EXPECT_EQ(set.contains(k), ref.contains(k)) << k;
  }
  for (std::uint64_t k = 200; k < 300; ++k) EXPECT_FALSE(set.contains(k)) << k;
}

TEST(Blacklist, DuplicateInstallRefreshSemantics) {
  // FIFO: re-install keeps the original eviction position. LRU: re-install
  // refreshes recency. Both report the duplicate (install() == false).
  const auto f1 = mk(0, 0, 1, 1).ft;
  const auto f2 = mk(0, 0, 2, 2).ft;
  const auto f3 = mk(0, 0, 3, 3).ft;
  {
    BlacklistTable fifo(2, EvictionPolicy::kFifo);
    EXPECT_TRUE(fifo.install(f1));
    EXPECT_TRUE(fifo.install(f2));
    EXPECT_FALSE(fifo.install(f1));  // does NOT move f1 to the back
    fifo.install(f3);                // f1 still oldest: evicted
    EXPECT_FALSE(fifo.contains(f1));
    EXPECT_TRUE(fifo.contains(f2));
  }
  {
    BlacklistTable lru(2, EvictionPolicy::kLru);
    EXPECT_TRUE(lru.install(f1));
    EXPECT_TRUE(lru.install(f2));
    EXPECT_FALSE(lru.install(f1));  // refreshes f1: f2 becomes the victim
    lru.install(f3);
    EXPECT_TRUE(lru.contains(f1));
    EXPECT_FALSE(lru.contains(f2));
  }
}

TEST(Blacklist, LruStampIndexMatchesReferenceScan) {
  // Regression for the O(log n) stamp index: replay a churny workload at
  // capacity against a reference model that finds its victim by linear
  // min-stamp scan (the old implementation), and assert the resident sets
  // stay identical after every operation.
  constexpr std::size_t kCap = 16;
  BlacklistTable bl(kCap, EvictionPolicy::kLru);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;  // key -> stamp
  std::uint64_t ref_clock = 0;
  auto ref_key = [](const traffic::FiveTuple& ft) { return traffic::bihash(ft, 0xB1AC); };
  auto ref_install = [&](const traffic::FiveTuple& ft) {
    const auto k = ref_key(ft);
    if (ref.contains(k)) {
      ref[k] = ++ref_clock;
      return;
    }
    if (ref.size() >= kCap) {
      auto victim = ref.begin();
      for (auto it = ref.begin(); it != ref.end(); ++it)
        if (it->second < victim->second) victim = it;
      ref.erase(victim);
    }
    ref[k] = ++ref_clock;
  };
  auto ref_touch = [&](const traffic::FiveTuple& ft) {
    const auto it = ref.find(ref_key(ft));
    if (it != ref.end()) it->second = ++ref_clock;
  };

  SplitMix64 rng(0xC0FFEE);
  for (int op = 0; op < 5000; ++op) {
    const auto ft = mk(0, 0, static_cast<std::uint16_t>(1 + rng.next() % 64),
                       static_cast<std::uint16_t>(1 + rng.next() % 8))
                        .ft;
    if (rng.chance(0.3)) {
      const bool hit = bl.contains(ft);
      EXPECT_EQ(hit, ref.contains(ref_key(ft)));
      if (hit) ref_touch(ft);
    } else {
      bl.install(ft);
      ref_install(ft);
    }
    ASSERT_EQ(bl.size(), ref.size());
  }
  // Final resident sets identical (same victims were chosen throughout).
  for (const auto& [k, stamp] : ref) {
    (void)stamp;
    std::size_t found = 0;
    for (std::uint16_t sp = 1; sp <= 64; ++sp)
      for (std::uint16_t dp = 1; dp <= 8; ++dp)
        if (ref_key(mk(0, 0, sp, dp).ft) == k && bl.contains(mk(0, 0, sp, dp).ft)) ++found;
    EXPECT_GE(found, 1u);
  }
}

TEST(IntFlowState, OutOfOrderTimestampGapClampsToZero) {
  // A reordered packet (earlier timestamp than the last seen) must clamp
  // the inter-packet delay to 0 — no unsigned underflow into a huge IPD.
  IntFlowState st;
  st.update(mk(1.0, 100), 1);
  st.update(mk(0.5, 100), 1);  // out of order
  EXPECT_EQ(st.min_ipd_us, 0u);
  EXPECT_EQ(st.max_ipd_us, 0u);
  EXPECT_EQ(st.sum_ipd_us, 0u);
  st.update(mk(0.75, 100), 1);  // 0.25 s after the (rewound) last_ts
  EXPECT_EQ(st.max_ipd_us, 250000u);
  const auto f = st.finalize();
  for (double v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1e12);  // an underflow would show up as ~1.8e13 us
  }
}

TEST(Controller, DigestAccountingAndInstall) {
  BlacklistTable bl(8);
  Controller ctl(bl);  // default config: zero latency, no faults
  const auto ft = mk(0.0, 100).ft;
  ctl.on_digest({ft, 0}, 0.0);
  ctl.advance_to(0.0);
  EXPECT_FALSE(bl.contains(ft));  // benign digest: no rule
  ctl.on_digest({ft, 1}, 0.1);
  ctl.advance_to(0.1);
  EXPECT_TRUE(bl.contains(ft));
  EXPECT_EQ(ctl.digests_received(), 2u);
  EXPECT_EQ(ctl.bytes_received(), 2u * Digest::kBytes);
  EXPECT_EQ(ctl.rules_installed(), 1u);
}

// --- Resources / timing --------------------------------------------------------

TEST(Resources, EmptySpecUsesOnlyStorage) {
  DeploymentSpec spec;
  const auto u = estimate_resources(spec);
  EXPECT_DOUBLE_EQ(u.tcam_frac, 0.0);
  EXPECT_GT(u.sram_frac, 0.0);
  EXPECT_GT(u.salu_frac, 0.0);
  EXPECT_EQ(u.stages, 12u);
}

TEST(Resources, TcamScalesWithRules) {
  core::VoteWhitelist small, large;
  small.tree_count = large.tree_count = 1;
  std::vector<rules::RangeRule> r1(10, rules::RangeRule{{{0, 5}, {0, 5}}, 0, 0});
  std::vector<rules::RangeRule> r2(100, rules::RangeRule{{{0, 5}, {0, 5}}, 0, 0});
  small.tables.emplace_back(r1);
  large.tables.emplace_back(r2);
  DeploymentSpec a, b;
  a.fl_rules = &small;
  b.fl_rules = &large;
  EXPECT_LT(estimate_resources(a).tcam_frac, estimate_resources(b).tcam_frac);
  EXPECT_NEAR(estimate_resources(b).tcam_frac / estimate_resources(a).tcam_frac, 10.0, 1e-9);
}

TEST(Timing, LatencyMatchesPaperBallpark) {
  TimingConfig cfg;
  EXPECT_NEAR(pipeline_latency_ns(cfg), 532.8, 1e-9);  // 12 x 44.4 ns
}

TEST(Timing, ThroughputModels) {
  TimingConfig cfg;
  const auto ig = all_dataplane_throughput(cfg, 0.01);
  EXPECT_NEAR(ig.gbps, 39.6, 1e-9);
  const auto he = control_assisted_throughput(cfg, 0.5);
  EXPECT_NEAR(he.gbps, 20.0 + cfg.control_plane_gbps, 1e-9);
  EXPECT_LT(he.gbps, ig.gbps);
}

// --- Pipeline paths -------------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    // Whitelist: one table accepting everything in [0, max]^13 => every
    // finalised flow is benign unless we shrink the rule.
    ml::Matrix fake(2, kSwitchFlFeatures);
    for (std::size_t j = 0; j < kSwitchFlFeatures; ++j) {
      fake(0, j) = 0.0;
      fake(1, j) = 1e6;
    }
    quant_.fit(fake);
    core::VoteWhitelist wl;
    wl.tree_count = 1;
    std::vector<rules::RangeRule> rules{
        {std::vector<rules::FieldRange>(kSwitchFlFeatures, {0, quant_.domain_max()}), 0, 0}};
    wl.tables.emplace_back(rules);
    wl_ = std::move(wl);
  }

  Pipeline make(PipelineConfig cfg) { return Pipeline(cfg, core::build_bundle(1, wl_, quant_)); }

  rules::Quantizer quant_{16};
  core::VoteWhitelist wl_;
};

TEST_F(PipelineTest, BrownThenBlueThenPurple) {
  PipelineConfig cfg;
  cfg.packet_threshold_n = 3;
  cfg.idle_timeout_delta = 0.0;
  Pipeline pipe = make(cfg);
  SimStats st;
  pipe.process(mk(0.0, 100), st);  // brown (1st)
  pipe.process(mk(0.1, 100), st);  // brown (2nd)
  pipe.process(mk(0.2, 100), st);  // blue (3rd = n)
  pipe.process(mk(0.3, 100), st);  // purple (label stored)
  EXPECT_EQ(st.path(Path::kBrown), 2u);
  EXPECT_EQ(st.path(Path::kBlue), 1u);
  EXPECT_EQ(st.path(Path::kPurple), 1u);
  EXPECT_EQ(st.flows_classified, 1u);
  EXPECT_EQ(pipe.controller().digests_received(), 1u);
}

TEST_F(PipelineTest, TimeoutFinalisesIdleFlow) {
  PipelineConfig cfg;
  cfg.packet_threshold_n = 100;
  cfg.idle_timeout_delta = 1.0;
  Pipeline pipe = make(cfg);
  SimStats st;
  pipe.process(mk(0.0, 100), st);
  pipe.process(mk(0.1, 100), st);
  pipe.process(mk(5.0, 100), st);  // idle > 1 s: blue (timeout flavour)
  EXPECT_EQ(st.path(Path::kBlue), 1u);
  EXPECT_EQ(st.flows_classified, 1u);
}

TEST_F(PipelineTest, TimeoutSeedsFreshEpochWithTriggeringPacket) {
  // Regression: the packet that trips the idle timeout must start the next
  // feature epoch (as extract_switch_features does during training), not be
  // dropped from the registers entirely.
  PipelineConfig cfg;
  cfg.packet_threshold_n = 100;
  cfg.idle_timeout_delta = 1.0;
  Pipeline pipe = make(cfg);
  SimStats st;
  const auto trigger = mk(5.0, 321);
  pipe.process(mk(0.0, 100), st);
  pipe.process(mk(0.1, 100), st);
  pipe.process(trigger, st);  // timeout: finalise old epoch, seed new one
  const IntFlowState* flow = pipe.flow_store().find(trigger.ft);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->pkt_count, 1u);
  EXPECT_EQ(flow->total_size, 321u);
  EXPECT_EQ(flow->last_ts_us, static_cast<std::uint64_t>(5.0 * 1e6));
}

TEST_F(PipelineTest, GreenMirrorsTrackedSeparately) {
  // Mirrors are copies of blue/orange packets; path_count must sum to the
  // packet total with the mirror volume in its own counter.
  PipelineConfig cfg;
  cfg.packet_threshold_n = 2;
  cfg.idle_timeout_delta = 0.0;
  Pipeline pipe = make(cfg);
  SimStats st;
  pipe.process(mk(0.0, 100), st);  // brown
  pipe.process(mk(0.1, 100), st);  // blue: finalise + mirror
  pipe.process(mk(0.2, 100), st);  // purple
  std::size_t paths = 0;
  for (std::size_t i = 0; i < 6; ++i) paths += st.path_count[i];
  EXPECT_EQ(paths, st.packets);
  EXPECT_EQ(st.path(Path::kGreen), 0u);
  EXPECT_EQ(st.green_mirrors, 1u);
}

TEST_F(PipelineTest, MaliciousFlowGetsBlacklisted) {
  // Shrink the whitelist so nothing matches: every classified flow is
  // malicious => digest installs a blacklist rule => red path afterwards.
  core::VoteWhitelist deny;
  deny.tree_count = 1;
  deny.tables.emplace_back(std::vector<rules::RangeRule>{});
  PipelineConfig cfg;
  cfg.packet_threshold_n = 2;
  Pipeline pipe(cfg, core::build_bundle(1, std::move(deny), quant_));
  SimStats st;
  pipe.process(mk(0.0, 100, 1, 1, true), st);  // brown
  pipe.process(mk(0.1, 100, 1, 1, true), st);  // blue -> malicious -> blacklist
  pipe.process(mk(0.2, 100, 1, 1, true), st);  // red
  EXPECT_EQ(st.path(Path::kRed), 1u);
  EXPECT_EQ(st.blacklist_hits, 1u);
  EXPECT_EQ(pipe.blacklist().size(), 1u);
  EXPECT_EQ(st.dropped, 2u);  // blue verdict + red
}

TEST_F(PipelineTest, CollisionTakesOrangePath) {
  PipelineConfig cfg;
  cfg.flow_slots = 1;  // force collisions with 3 distinct flows
  cfg.packet_threshold_n = 100;
  Pipeline pipe = make(cfg);
  SimStats st;
  pipe.process(mk(0.0, 100, 1, 1), st);
  pipe.process(mk(0.1, 100, 2, 2), st);
  pipe.process(mk(0.2, 100, 3, 3), st);  // both ways occupied
  EXPECT_GE(st.path(Path::kOrange), 1u);
  EXPECT_GE(st.collisions, 1u);
}

TEST_F(PipelineTest, NullModelThrows) {
  EXPECT_THROW(Pipeline(PipelineConfig{}, nullptr), std::invalid_argument);
}

TEST_F(PipelineTest, InvalidConfigThrowsConfigError) {
  const auto expect_field = [this](const PipelineConfig& cfg, const char* field) {
    try {
      make(cfg);
      ADD_FAILURE() << "constructor accepted a bad " << field;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.structure(), "PipelineConfig");
      EXPECT_EQ(e.field(), field);
    }
  };
  PipelineConfig cfg;
  cfg.flow_slots = 0;
  expect_field(cfg, "flow_slots");
  // Tables are allocated whole at construction; oversized ones are config
  // errors, not std::bad_alloc aborts.
  cfg.flow_slots = FlowStore::kMaxSlotsPerTable + 1;
  expect_field(cfg, "flow_slots");
  cfg = {};
  cfg.blacklist_capacity = BlacklistTable::kMaxCapacity + 1;
  expect_field(cfg, "blacklist_capacity");
  cfg.blacklist_capacity = std::size_t{1} << 40;
  expect_field(cfg, "blacklist_capacity");
  cfg = {};
  cfg.flow_slots = FlowStore::kMaxSlotsPerTable;  // the bounds themselves are legal
  cfg.blacklist_capacity = BlacklistTable::kMaxCapacity;
  EXPECT_EQ(validate_config(cfg), "");
  // delta is cast to integer µs; +inf or anything past 2^64 µs is UB there.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 1e14}) {
    cfg = {};
    cfg.idle_timeout_delta = bad;
    expect_field(cfg, "idle_timeout_delta");
  }
  // <= 0 means no idle timeout; a span just under the 2^64 µs limit is legal.
  for (const double ok : {0.0, -1.0, 1.8e13}) {
    cfg = {};
    cfg.idle_timeout_delta = ok;
    EXPECT_EQ(validate_config(cfg), "") << ok;
    EXPECT_NO_THROW(make(cfg));
  }
}

TEST_F(PipelineTest, PerPacketRecordsAligned) {
  PipelineConfig cfg;
  Pipeline pipe = make(cfg);
  traffic::Trace t;
  for (int i = 0; i < 50; ++i) t.packets.push_back(mk(0.01 * i, 100, 1, 1, i % 2 == 0));
  const auto st = pipe.run(t);
  EXPECT_EQ(st.packets, 50u);
  EXPECT_EQ(st.pred.size(), 50u);
  EXPECT_EQ(st.truth.size(), 50u);
}

// --- timestamp-cast train/deploy skew regression --------------------------
// The pipeline used to cast p.ts * 1e6 straight to uint64_t: a negative
// timestamp (pcap clock skew, pre-epoch captures) wrapped to a huge value
// and force-fired the idle timeout, finalising epochs the training-side
// extractor (which clamps via to_us) never saw. Both sides must share the
// same clamp.

TEST_F(PipelineTest, NegativeTimestampsDoNotForceIdleTimeout) {
  PipelineConfig cfg;
  cfg.packet_threshold_n = 0;    // threshold finalisation disabled
  cfg.idle_timeout_delta = 10.0; // only a real 10 s gap may finalise
  Pipeline pipe = make(cfg);
  SimStats st;
  // Five closely-spaced packets with negative timestamps: one live epoch,
  // nothing idle. Pre-fix, every packet after the first "timed out" (the
  // wrapped cast made now_us - last_ts_us astronomically large).
  for (int i = 0; i < 5; ++i) pipe.process(mk(-5.0 + 0.1 * i, 100), st);
  EXPECT_EQ(st.flows_classified, 0u);
  EXPECT_EQ(st.path(Path::kBlue), 0u);
  EXPECT_EQ(st.path(Path::kBrown), 5u);
}

TEST_F(PipelineTest, NegativeAndOutOfOrderEpochBoundariesMatchExtractor) {
  // Three flows, each exactly packet_threshold_n packets, with negative and
  // out-of-order timestamps. Epoch boundaries must land where the training
  // extractor puts them: one finalisation per flow, at the n-th packet.
  //
  // Classification counts alone cannot discriminate (the pre-fix pipeline
  // also happened to classify each flow once — just at the wrong packet, on
  // a truncated epoch). So the whitelist here admits only epochs whose
  // pkt_count feature is >= 3: a pipeline that finalises early produces a
  // 1- or 2-packet epoch, gets a malicious label, and shows up in fp/drops.
  rules::Quantizer quant{16};
  ml::Matrix fake(2, kSwitchFlFeatures);
  for (std::size_t j = 0; j < kSwitchFlFeatures; ++j) {
    fake(0, j) = 0.0;
    fake(1, j) = j == 0 ? 8.0 : 1e6;  // tight pkt_count range: 1 vs 3 resolve
  }
  quant.fit(fake);
  core::VoteWhitelist wl;
  wl.tree_count = 1;
  std::vector<rules::FieldRange> box(kSwitchFlFeatures, {0, quant.domain_max()});
  box[0] = {quant.quantize_value(0, 3.0), quant.domain_max()};
  wl.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
  const DeployedModel dm = core::build_bundle(1, std::move(wl), quant);

  PipelineConfig cfg;
  cfg.packet_threshold_n = 3;
  cfg.idle_timeout_delta = 10.0;
  traffic::Trace t;
  const double starts[3] = {-4.0, -0.1, 2.0};
  for (int f = 0; f < 3; ++f) {
    const auto src = static_cast<std::uint32_t>(10 + f);
    const auto sport = static_cast<std::uint16_t>(2000 + f);
    t.packets.push_back(mk(starts[f], 100, src, sport));
    t.packets.push_back(mk(starts[f] + 0.2, 100, src, sport));
    t.packets.push_back(mk(starts[f] - 0.3, 100, src, sport));  // out of order
  }
  const auto features = extract_switch_features(t, cfg.packet_threshold_n,
                                                cfg.idle_timeout_delta, 1);
  ASSERT_EQ(features.x.rows(), 3u);
  for (std::size_t r = 0; r < features.x.rows(); ++r) {
    ASSERT_EQ(features.x(r, 0), 3.0);  // every training epoch spans 3 packets
  }
  Pipeline pipe(cfg, dm);
  const auto st = pipe.run(t);
  EXPECT_EQ(st.flows_classified, features.x.rows());
  EXPECT_EQ(st.path(Path::kBlue), 3u);
  // Deployment saw the same 3-packet epochs, so the >=3-packets whitelist
  // admits every flow: no malicious verdicts, no drops, no red path.
  EXPECT_EQ(st.tp + st.fp, 0u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.path(Path::kRed), 0u);
}

}  // namespace
}  // namespace iguard::switchsim
