// Observability layer (DESIGN.md §4d): registry semantics, hand-computed
// histogram buckets, snapshot export determinism (non-"timing." keys must be
// byte-identical across identical runs), the diff helper, and the SimStats
// accounting invariants the instruments are supposed to mirror.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ml/rng.hpp"
#include "obs/metrics.hpp"
#include "switchsim/replay.hpp"

namespace iguard {
namespace {

using obs::MetricsSnapshot;
using obs::Registry;

// Under -DIGUARD_OBS_OFF the record bodies compile away and registries stay
// empty by design; tests that assert recorded values skip themselves. The
// SimStats invariants (and the rest of the suite) still run.
#if defined(IGUARD_OBS_OFF)
#define IGUARD_SKIP_IF_OBS_OFF() \
  GTEST_SKIP() << "built with IGUARD_OBS_OFF: instruments compiled out"
#else
#define IGUARD_SKIP_IF_OBS_OFF() (void)0
#endif

TEST(ObsRegistry, CounterGetOrCreateSharesStorage) {
  IGUARD_SKIP_IF_OBS_OFF();
  Registry reg;
  obs::Counter a = reg.counter("pkts");
  obs::Counter b = reg.counter("pkts");  // same name -> same instrument
  a.inc();
  b.inc(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(reg.counter("other").value(), 0u);
}

TEST(ObsRegistry, DisabledRegistryHandsOutInactiveHandles) {
  Registry reg(obs::ObsConfig{false});
  EXPECT_FALSE(reg.enabled());
  obs::Counter c = reg.counter("pkts");
  obs::Gauge g = reg.gauge("occ");
  c.inc(3);
  g.set(7.0);
  EXPECT_FALSE(c.active());
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_TRUE(reg.snapshot().scalars.empty());
}

TEST(ObsHistogram, BucketsMatchHandComputedCounts) {
  IGUARD_SKIP_IF_OBS_OFF();
  Registry reg;
  const double bounds[] = {10.0, 100.0, 1000.0};
  obs::Histogram h = reg.histogram("lat", bounds);
  // Bucket i holds values <= bounds[i] (first matching bound); the last
  // bucket is the overflow. Hand-placed: b0 <- {5, 10}, b1 <- {50, 100},
  // b2 <- {101, 1000}, b3 (overflow) <- {5000}.
  for (const double v : {5.0, 10.0, 50.0, 100.0, 101.0, 1000.0, 5000.0}) h.record(v);
  ASSERT_EQ(h.bucket_count(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0 + 10.0 + 50.0 + 100.0 + 101.0 + 1000.0 + 5000.0);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.scalars.at("lat.count"), 7.0);
  EXPECT_EQ(snap.scalars.at("lat.min"), 5.0);
  EXPECT_EQ(snap.scalars.at("lat.max"), 5000.0);
  EXPECT_EQ(snap.scalars.at("lat.b00"), 2.0);
  EXPECT_EQ(snap.scalars.at("lat.b03"), 1.0);
}

TEST(ObsSeries, SamplesOnCadenceAndDropsWhenFull) {
  IGUARD_SKIP_IF_OBS_OFF();
  Registry reg;
  obs::Series s = reg.series("backlog", /*capacity=*/3, /*every_n=*/2);
  for (int i = 1; i <= 10; ++i) s.observe(static_cast<double>(i));
  // Events 2, 4, 6 sampled; 8 and 10 dropped (capacity 3).
  EXPECT_EQ(s.events(), 10u);
  EXPECT_EQ(s.size(), 3u);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.scalars.at("backlog.dropped"), 2.0);
  const auto& rows = snap.series.at("backlog");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::pair<std::uint64_t, double>{2, 2.0}));
  EXPECT_EQ(rows[2], (std::pair<std::uint64_t, double>{6, 6.0}));
}

TEST(ObsSnapshot, DiffSubtractsScalars) {
  IGUARD_SKIP_IF_OBS_OFF();
  Registry reg;
  obs::Counter c = reg.counter("pkts");
  c.inc(10);
  const MetricsSnapshot before = reg.snapshot();
  c.inc(32);
  reg.counter("late").inc(1);  // key absent from `before`: diffs against 0
  const MetricsSnapshot delta = obs::diff(before, reg.snapshot());
  EXPECT_EQ(delta.scalars.at("pkts"), 32.0);
  EXPECT_EQ(delta.scalars.at("late"), 1.0);
}

TEST(ObsSnapshot, ExportsAreDeterministicallyOrdered) {
  IGUARD_SKIP_IF_OBS_OFF();
  Registry reg;
  reg.counter("z.last").inc(2);
  reg.counter("a.first").inc(1);
  reg.gauge("m.mid").set(0.25);
  const std::string json = obs::to_json(reg.snapshot());
  const std::string csv = obs::to_csv(reg.snapshot());
  EXPECT_LT(json.find("a.first"), json.find("m.mid"));
  EXPECT_LT(json.find("m.mid"), json.find("z.last"));
  EXPECT_LT(csv.find("a.first"), csv.find("z.last"));
  EXPECT_NE(json.find("\"a.first\": 1"), std::string::npos);
  EXPECT_NE(csv.find("scalar,m.mid,,0.25"), std::string::npos);
}

// --- pipeline-level determinism + SimStats invariants ---------------------

/// Same synthetic deployment the replay tests use: one FL rule admitting
/// small-packet (benign) flows.
class ObsReplayTest : public ::testing::Test {
 protected:
  ObsReplayTest() {
    ml::Matrix fake(2, switchsim::kSwitchFlFeatures);
    for (std::size_t j = 0; j < switchsim::kSwitchFlFeatures; ++j) {
      fake(0, j) = 0.0;
      fake(1, j) = 1e6;
    }
    quant_.fit(fake);
    wl_.tree_count = 1;
    std::vector<rules::FieldRange> box(switchsim::kSwitchFlFeatures, {0, quant_.domain_max()});
    box[5] = {0, quant_.quantize_value(5, 600.0)};  // feature 5 = min size
    wl_.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
  }

  switchsim::DeployedModel model() const {
    switchsim::DeployedModel dm;
    dm.fl_tables = &wl_;
    dm.fl_quantizer = &quant_;
    return dm;
  }

  traffic::Trace make_trace(std::size_t flows, std::size_t packets_per_flow) const {
    ml::Rng rng(7);
    traffic::Trace t;
    for (std::size_t f = 0; f < flows; ++f) {
      const bool mal = f % 3 == 0;
      traffic::FiveTuple ft{0x0A000000u + static_cast<std::uint32_t>(f),
                            0x0B000000u + static_cast<std::uint32_t>(f % 7),
                            static_cast<std::uint16_t>(1024 + f), 443, traffic::kProtoTcp};
      for (std::size_t i = 0; i < packets_per_flow; ++i) {
        traffic::Packet p;
        p.ts = 0.001 * static_cast<double>(f) + 0.05 * static_cast<double>(i) +
               rng.uniform(0.0, 0.0005);
        p.ft = i % 2 == 0 ? ft : ft.reversed();
        p.length = mal ? static_cast<std::uint16_t>(1200 + rng.index(200))
                       : static_cast<std::uint16_t>(80 + rng.index(60));
        p.malicious = mal;
        t.packets.push_back(p);
      }
    }
    t.sort_by_time();
    return t;
  }

  rules::Quantizer quant_{16};
  core::VoteWhitelist wl_;
};

/// Strip wall-clock keys: everything else must be a pure function of the
/// seeded workload.
MetricsSnapshot without_timing(MetricsSnapshot s) {
  for (auto it = s.scalars.begin(); it != s.scalars.end();) {
    it = it->first.rfind("timing.", 0) == 0 ? s.scalars.erase(it) : std::next(it);
  }
  for (auto it = s.series.begin(); it != s.series.end();) {
    it = it->first.rfind("timing.", 0) == 0 ? s.series.erase(it) : std::next(it);
  }
  return s;
}

TEST_F(ObsReplayTest, NonTimingKeysByteIdenticalAcrossIdenticalRuns) {
  IGUARD_SKIP_IF_OBS_OFF();
  const auto trace = make_trace(60, 8);
  const auto dm = model();
  auto run_once = [&](std::size_t num_threads) {
    Registry reg;
    switchsim::PipelineConfig cfg;
    cfg.packet_threshold_n = 4;
    cfg.control.control_latency_s = 1e-3;
    cfg.control.channel_capacity = 32;
    cfg.metrics = &reg;
    switchsim::ReplayConfig rc;
    rc.shards = 4;
    rc.num_threads = num_threads;
    (void)switchsim::replay_sharded(trace, cfg, dm, rc);
    const MetricsSnapshot snap = reg.snapshot();
    // Latency values are wall-clock, but which packets are sampled depends
    // only on each shard's packet index, so the sample counts are exact.
    std::map<std::string, double> sample_counts;
    for (const auto& [k, v] : snap.scalars) {
      if (k.rfind("timing.", 0) == 0 && k.find(".process_ns.") != std::string::npos &&
          k.ends_with(".count")) {
        sample_counts.emplace(k, v);
      }
    }
    return std::make_pair(obs::to_json(without_timing(snap)), sample_counts);
  };
  const auto [a, a_samples] = run_once(1);
  const auto [b, b_samples] = run_once(1);
  const auto [c, c_samples] = run_once(4);  // thread count must not matter either
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_NE(a.find("pipeline.shard0.path.brown.packets"), std::string::npos);
  EXPECT_NE(a.find("pipeline.shard3.control.digests"), std::string::npos);
  EXPECT_EQ(a_samples.size(), 4u * 6u);  // 4 shards x 6 paths
  EXPECT_EQ(a_samples, b_samples);
  EXPECT_EQ(a_samples, c_samples);
}

TEST_F(ObsReplayTest, PathCountersMatchSimStats) {
  IGUARD_SKIP_IF_OBS_OFF();
  const auto trace = make_trace(40, 8);
  const auto dm = model();
  Registry reg;
  switchsim::PipelineConfig cfg;
  cfg.packet_threshold_n = 4;
  cfg.metrics = &reg;
  switchsim::Pipeline pipe(cfg, dm);
  const auto st = pipe.run(trace);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.scalars.at("pipeline.path.red.packets"),
            static_cast<double>(st.path(switchsim::Path::kRed)));
  EXPECT_EQ(snap.scalars.at("pipeline.path.brown.packets"),
            static_cast<double>(st.path(switchsim::Path::kBrown)));
  EXPECT_EQ(snap.scalars.at("pipeline.path.blue.packets"),
            static_cast<double>(st.path(switchsim::Path::kBlue)));
  EXPECT_EQ(snap.scalars.at("pipeline.control.digests"),
            static_cast<double>(pipe.controller().digests_received()));
  EXPECT_EQ(snap.scalars.at("pipeline.control.installs"),
            static_cast<double>(pipe.controller().rules_installed()));
  EXPECT_EQ(snap.scalars.at("pipeline.leaked_packets"),
            static_cast<double>(st.faults.leaked_packets));
  // Per-path latency is sampled on the packets at index 0, 64, 128, ... of
  // the pipeline's stream: ceil(packets / 64) samples across the paths.
  static_assert(switchsim::Pipeline::kLatencySampleEvery == 64);
  const auto timing_samples = [](const MetricsSnapshot& s) {
    double n = 0.0;
    for (const char* path : {"red", "brown", "blue", "orange", "purple", "green"}) {
      n += s.scalars.at("timing.pipeline.process_ns." + std::string(path) + ".count");
    }
    return n;
  };
  EXPECT_EQ(timing_samples(snap), static_cast<double>((st.packets + 63) / 64));
  // The same count at the sampling boundaries, on prefixes of the trace.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 128u, 129u}) {
    ASSERT_LE(n, trace.size());
    Registry r;
    cfg.metrics = &r;
    switchsim::Pipeline prefix_pipe(cfg, dm);
    switchsim::SimStats ps;
    for (std::size_t i = 0; i < n; ++i) prefix_pipe.process(trace.packets[i], ps);
    EXPECT_EQ(timing_samples(r.snapshot()), static_cast<double>((n + 63) / 64)) << n;
  }
}

TEST_F(ObsReplayTest, SimStatsInvariantsAcrossConfigMatrix) {
  const auto trace = make_trace(50, 8);
  const auto dm = model();
  switchsim::FaultConfig faulty;
  faulty.digest_loss_rate = 0.1;
  faulty.install_failure_rate = 0.2;
  faulty.crashes = {{0.05, 0.1}};
  for (const auto& faults : {switchsim::FaultConfig{}, faulty}) {
    for (const auto policy :
         {switchsim::EvictionPolicy::kFifo, switchsim::EvictionPolicy::kLru}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        switchsim::PipelineConfig cfg;
        cfg.packet_threshold_n = 4;
        cfg.eviction = policy;
        cfg.blacklist_capacity = 8;  // force evictions
        cfg.control.control_latency_s = 1e-3;
        cfg.control.faults = faults;
        switchsim::ReplayConfig rc;
        rc.shards = shards;
        const auto out = switchsim::replay_sharded(trace, cfg, dm, rc);
        const std::string ctx = "shards=" + std::to_string(shards);

        // path_count sums to packets, and the confusion cells partition them.
        std::size_t path_sum = 0;
        for (const auto c : out.stats.path_count) path_sum += c;
        EXPECT_EQ(path_sum, out.stats.packets) << ctx;
        EXPECT_EQ(out.stats.tp + out.stats.fp + out.stats.tn + out.stats.fn,
                  out.stats.packets)
            << ctx;
        EXPECT_EQ(out.stats.packets, trace.size()) << ctx;

        // merge_stats over the per-shard parts must reproduce the merged
        // totals for every shared counter (pred/truth are re-interleaved by
        // replay_sharded, so compare the counter fields).
        const auto remerged = switchsim::merge_stats(out.per_shard);
        EXPECT_EQ(remerged.path_count, out.stats.path_count) << ctx;
        EXPECT_EQ(remerged.packets, out.stats.packets) << ctx;
        EXPECT_EQ(remerged.flows_classified, out.stats.flows_classified) << ctx;
        EXPECT_EQ(remerged.faults.install_attempts, out.stats.faults.install_attempts)
            << ctx;
        EXPECT_EQ(remerged.faults.leaked_packets, out.stats.faults.leaked_packets) << ctx;
        EXPECT_EQ(remerged.tp, out.stats.tp) << ctx;
        EXPECT_EQ(remerged.fn, out.stats.fn) << ctx;

        // One shard is definitionally a single pipeline: totals must equal a
        // plain Pipeline::run over the same trace, field for field.
        if (shards == 1) {
          switchsim::Pipeline single(cfg, dm);
          const auto ss = single.run(trace);
          EXPECT_EQ(ss.path_count, out.stats.path_count) << ctx;
          EXPECT_EQ(ss.flows_classified, out.stats.flows_classified) << ctx;
          EXPECT_EQ(ss.dropped, out.stats.dropped) << ctx;
          EXPECT_EQ(ss.tp, out.stats.tp) << ctx;
          EXPECT_EQ(ss.fp, out.stats.fp) << ctx;
          EXPECT_EQ(ss.tn, out.stats.tn) << ctx;
          EXPECT_EQ(ss.fn, out.stats.fn) << ctx;
          EXPECT_EQ(ss.pred, out.stats.pred) << ctx;
          EXPECT_EQ(ss.faults.leaked_packets, out.stats.faults.leaked_packets) << ctx;
        }
      }
    }
  }
}

}  // namespace
}  // namespace iguard
