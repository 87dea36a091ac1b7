// Zero-allocation packet-path invariant: once flows are warmed up
// (classified or mid-epoch), Pipeline::process must not touch the heap on
// the red / brown / purple steady-state paths — quantisation goes through
// stack buffers (Quantizer::quantize_into) and the compiled match engine
// never allocates. This is the only TU in iguard_tests that may include
// alloc_counter.hpp (it replaces the global operator new).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "daemon/daemon.hpp"
#include "harness/alloc_counter.hpp"
#include "switchsim/pipeline.hpp"
#include "trafficgen/pcap_io.hpp"

namespace iguard::switchsim {
namespace {

traffic::Packet mk(double ts, std::uint16_t len, std::uint32_t src, std::uint16_t sport,
                   bool mal = false) {
  traffic::Packet p;
  p.ts = ts;
  p.ft = {src, 0x0A0000FFu, sport, 443, traffic::kProtoTcp};
  p.length = len;
  p.malicious = mal;
  return p;
}

class AllocPathTest : public ::testing::Test {
 protected:
  AllocPathTest() {
    // FL whitelist admitting only small-packet flows (feature 5 = min size),
    // so the trace produces both benign (purple) and malicious (red) flows.
    ml::Matrix fake(2, kSwitchFlFeatures);
    for (std::size_t j = 0; j < kSwitchFlFeatures; ++j) {
      fake(0, j) = 0.0;
      fake(1, j) = 1e6;
    }
    fl_quant_.fit(fake);
    std::vector<rules::FieldRange> box(kSwitchFlFeatures, {0, fl_quant_.domain_max()});
    box[5] = {0, fl_quant_.quantize_value(5, 600.0)};
    fl_.tree_count = 1;
    fl_.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});

    // PL whitelist over {dst_port, proto, length, TTL} so the brown path
    // exercises a real per-packet rule lookup, not the no-PL early-out.
    ml::Matrix fake_pl(2, 4);
    for (std::size_t j = 0; j < 4; ++j) {
      fake_pl(0, j) = 0.0;
      fake_pl(1, j) = 65535.0;
    }
    pl_quant_.fit(fake_pl);
    pl_.tree_count = 1;
    pl_.tables.emplace_back(std::vector<rules::RangeRule>{
        {std::vector<rules::FieldRange>(4, {0, pl_quant_.domain_max()}), 0, 0}});
  }

  DeployedModel model() const {
    DeployedModel dm;
    dm.fl_tables = &fl_;
    dm.fl_quantizer = &fl_quant_;
    dm.pl_tables = &pl_;
    dm.pl_quantizer = &pl_quant_;
    return dm;
  }

  rules::Quantizer fl_quant_{16}, pl_quant_{16};
  core::VoteWhitelist fl_, pl_;
};

TEST_F(AllocPathTest, SteadyStatePacketsAllocateNothing) {
  if (!harness::alloc_counting_active()) {
    GTEST_SKIP() << "sanitizer build owns the allocator";
  }
  PipelineConfig cfg;
  cfg.packet_threshold_n = 4;
  cfg.idle_timeout_delta = 1e6;  // no timeouts during the probe
  cfg.record_labels = false;     // per-packet vectors off (the 200 MB knob)
  const auto dm = model();
  Pipeline pipe(cfg, dm);
  SimStats st;

  // Warm-up: classify one benign flow (-> purple thereafter), one malicious
  // flow (-> blacklist install -> red thereafter), and start a long-lived
  // flow that stays below the packet threshold (-> brown on every packet).
  double ts = 0.0;
  for (int i = 0; i < 4; ++i) pipe.process(mk(ts += 0.001, 100, 1, 1000), st);
  for (int i = 0; i < 4; ++i) pipe.process(mk(ts += 0.001, 1400, 2, 2000, true), st);
  pipe.process(mk(ts += 0.001, 100, 3, 3000), st);
  ASSERT_EQ(st.flows_classified, 2u);
  ASSERT_EQ(pipe.blacklist().size(), 1u);

  // Steady state: purple + red traffic only, zero heap traffic.
  const std::size_t before = harness::alloc_count();
  for (int i = 0; i < 5000; ++i) {
    pipe.process(mk(ts += 0.0001, 100, 1, 1000), st);        // purple
    pipe.process(mk(ts += 0.0001, 1400, 2, 2000, true), st); // red
  }
  const std::size_t delta = harness::alloc_count() - before;
  EXPECT_EQ(delta, 0u) << "steady-state process() allocated " << delta << " times";
  EXPECT_EQ(st.path(Path::kPurple), 5000u);
  EXPECT_EQ(st.path(Path::kRed), 5000u);
}

TEST_F(AllocPathTest, BrownPathAllocatesNothing) {
  if (!harness::alloc_counting_active()) {
    GTEST_SKIP() << "sanitizer build owns the allocator";
  }
  PipelineConfig cfg;
  cfg.packet_threshold_n = 1u << 30;  // never finalise: every packet brown
  cfg.idle_timeout_delta = 1e6;
  cfg.record_labels = false;
  const auto dm = model();
  Pipeline pipe(cfg, dm);
  SimStats st;
  double ts = 0.0;
  pipe.process(mk(ts += 0.001, 100, 7, 7000), st);  // slot claim
  const std::size_t before = harness::alloc_count();
  for (int i = 0; i < 5000; ++i) pipe.process(mk(ts += 0.0001, 100, 7, 7000), st);
  EXPECT_EQ(harness::alloc_count() - before, 0u);
  EXPECT_EQ(st.path(Path::kBrown), 5001u);
}

TEST_F(AllocPathTest, FifoBlacklistChurnAllocatesNothing) {
  if (!harness::alloc_counting_active()) {
    GTEST_SKIP() << "sanitizer build owns the allocator";
  }
  // Eight malicious flows cycle through a two-entry FIFO blacklist and a
  // one-slot flow store. Each visit, a flow reclaims a classified resident's
  // slot (orange), is re-classified malicious (blue: digest, install,
  // eviction of the oldest rule) and is dropped (red). Re-classification
  // re-inserts a key the leak set already holds, so once warm every
  // structure stays at its size: installs and evictions must not allocate.
  PipelineConfig cfg;
  cfg.packet_threshold_n = 2;
  cfg.idle_timeout_delta = 1e6;
  cfg.flow_slots = 1;
  cfg.blacklist_capacity = 2;
  cfg.record_labels = false;
  const auto dm = model();
  Pipeline pipe(cfg, dm);
  SimStats st;
  double ts = 0.0;
  const auto round = [&] {
    for (std::uint32_t f = 0; f < 8; ++f) {
      for (int i = 0; i < 3; ++i) {
        pipe.process(mk(ts += 0.0001, 1400, 20 + f, static_cast<std::uint16_t>(2000 + f), true),
                     st);
      }
    }
  };
  for (int r = 0; r < 3; ++r) round();
  const std::size_t classified = st.flows_classified;
  const std::size_t evictions = pipe.blacklist().evictions();

  const std::size_t before = harness::alloc_count();
  for (int r = 0; r < 50; ++r) round();
  const std::size_t delta = harness::alloc_count() - before;
  EXPECT_EQ(delta, 0u) << "blacklist churn allocated " << delta << " times";
  // The probe really churned: seven re-classifications and seven FIFO
  // evictions per round (one flow stays resident in the second way).
  EXPECT_EQ(st.flows_classified - classified, 50u * 7u);
  EXPECT_EQ(pipe.blacklist().evictions() - evictions, 50u * 7u);
  EXPECT_EQ(pipe.blacklist().size(), 2u);
}

TEST_F(AllocPathTest, SteadyStateStaysAllocationFreeWithMetricsEnabled) {
  if (!harness::alloc_counting_active()) {
    GTEST_SKIP() << "sanitizer build owns the allocator";
  }
  // The observability layer (DESIGN.md §4d) registers instruments at
  // construction; per packet it is counter increments and gauge stores, and
  // one packet in Pipeline::kLatencySampleEvery also reads the clock twice
  // and records a latency histogram sample (~156 of the 10,000 below) — the
  // zero-allocation invariant must hold with metrics on.
  obs::Registry metrics;
  PipelineConfig cfg;
  cfg.packet_threshold_n = 4;
  cfg.idle_timeout_delta = 1e6;
  cfg.record_labels = false;
  cfg.metrics = &metrics;
  const auto dm = model();
  Pipeline pipe(cfg, dm);
  SimStats st;
  double ts = 0.0;
  for (int i = 0; i < 4; ++i) pipe.process(mk(ts += 0.001, 100, 1, 1000), st);
  for (int i = 0; i < 4; ++i) pipe.process(mk(ts += 0.001, 1400, 2, 2000, true), st);
  pipe.process(mk(ts += 0.001, 100, 3, 3000), st);  // flush the pending install
  ASSERT_EQ(st.flows_classified, 2u);
  ASSERT_EQ(pipe.blacklist().size(), 1u);

  const std::size_t before = harness::alloc_count();
  for (int i = 0; i < 5000; ++i) {
    pipe.process(mk(ts += 0.0001, 100, 1, 1000), st);        // purple
    pipe.process(mk(ts += 0.0001, 1400, 2, 2000, true), st); // red
  }
  const std::size_t delta = harness::alloc_count() - before;
  EXPECT_EQ(delta, 0u) << "metrics-on steady state allocated " << delta << " times";

#if !defined(IGUARD_OBS_OFF)  // instruments compiled out: nothing to snapshot
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.scalars.at("pipeline.path.purple.packets"),
            static_cast<double>(st.path(Path::kPurple)));
  EXPECT_EQ(snap.scalars.at("pipeline.path.red.packets"),
            static_cast<double>(st.path(Path::kRed)));
#endif
}

TEST_F(AllocPathTest, SwapEnabledSteadyStateAllocatesNothing) {
  if (!harness::alloc_counting_active()) {
    GTEST_SKIP() << "sanitizer build owns the allocator";
  }
  // With the model-swap loop on, every packet additionally pins the current
  // ModelBundle through the hazard-slot protocol (core/model_swap.hpp). On
  // paths with no flow finalisation (purple/red/brown) no mirrors are
  // emitted and no publish is due, so the pin must be the only extra work —
  // two atomic loads, zero heap traffic.
  PipelineConfig cfg;
  cfg.packet_threshold_n = 4;
  cfg.idle_timeout_delta = 1e6;
  cfg.record_labels = false;
  cfg.swap.enabled = true;
  cfg.swap.drift.enabled = false;
  cfg.swap.publish_after_extensions = 0;  // no publishes during the probe
  cfg.swap.recent_capacity = 16;
  const auto dm = model();
  Pipeline pipe(cfg, dm);
  SimStats st;
  double ts = 0.0;
  for (int i = 0; i < 4; ++i) pipe.process(mk(ts += 0.001, 100, 1, 1000), st);
  for (int i = 0; i < 4; ++i) pipe.process(mk(ts += 0.001, 1400, 2, 2000, true), st);
  pipe.process(mk(ts += 0.001, 100, 3, 3000), st);
  ASSERT_EQ(st.flows_classified, 2u);

  const std::size_t before = harness::alloc_count();
  for (int i = 0; i < 5000; ++i) {
    pipe.process(mk(ts += 0.0001, 100, 1, 1000), st);        // purple
    pipe.process(mk(ts += 0.0001, 1400, 2, 2000, true), st); // red
  }
  const std::size_t delta = harness::alloc_count() - before;
  EXPECT_EQ(delta, 0u) << "swap-enabled steady state allocated " << delta << " times";
  ASSERT_NE(pipe.swap_loop(), nullptr);
  EXPECT_EQ(pipe.swap_loop()->handle().version(), 1u);
}

TEST_F(AllocPathTest, DaemonServingStepIsAllocationFreeOnceWarm) {
  if (!harness::alloc_counting_active()) {
    GTEST_SKIP() << "sanitizer build owns the allocator";
  }
  // The serving daemon extends the zero-allocation invariant to both sides
  // of its loop. Once the first replay pass has warmed every flow and sized
  // every reused buffer (source chunk, framer, the reader's IngestResult,
  // admit buffer), a serving step — pump_once() (read, frame, parse, gate,
  // push) and drain_some() (pop, route, process, alert cadence) — must be
  // heap-silent. Both wire formats of the same trace are served.
  traffic::Trace t;
  double ts = 0.0;
  for (int i = 0; i < 8; ++i) {
    for (int f = 0; f < 8; ++f) {
      const bool mal = f % 3 == 0;
      t.packets.push_back(mk(ts += 0.0005, mal ? 1400 : 100,
                             static_cast<std::uint32_t>(10 + f),
                             static_cast<std::uint16_t>(1000 + f), mal));
    }
  }
  std::ostringstream pcap;
  traffic::write_pcap(pcap, t);
  const std::pair<const char*, std::string> copies[] = {
      {"alloc_daemon_trace.csv", io::trace_to_csv(t)},
      {"alloc_daemon_trace.pcap", pcap.str()},
  };
  for (const auto& [name, bytes] : copies) {
    SCOPED_TRACE(name);
    const std::string path = ::testing::TempDir() + name;
    {
      std::ofstream out(path, std::ios::binary);
      out << bytes;
    }

    daemon::DaemonConfig cfg;
    cfg.source.path = path;
    cfg.source.loops = 2;
    cfg.ring_capacity = 4096;  // holds a full pass: pump never drains inline
    cfg.pipeline.packet_threshold_n = 4;
    cfg.pipeline.idle_timeout_delta = 1e9;
    daemon::Daemon d(cfg, model());

    // Pass 1 (uncounted): every flow classifies — benign to purple, the
    // malicious ones through blacklist installs to red.
    while (d.stats().loops_completed < 1) {
      d.pump_once();
      d.drain_some(static_cast<std::size_t>(-1));
    }

    // Pass 2: the same records replayed warm; every step is counted.
    std::size_t counted = 0, allocs = 0;
    for (;;) {
      const std::size_t before = harness::alloc_count();
      const daemon::Daemon::PumpStatus st = d.pump_once();
      counted += d.drain_some(static_cast<std::size_t>(-1));
      allocs += harness::alloc_count() - before;
      if (st == daemon::Daemon::PumpStatus::kDone) break;
    }
    EXPECT_EQ(counted, t.size());
    EXPECT_EQ(allocs, 0u) << "daemon serving steps allocated " << allocs << " times";

    d.finalize();
    EXPECT_EQ(daemon::audit_daemon_conservation(d.stats()), "");
    EXPECT_EQ(d.stats().ingest.accepted, 2 * t.size());
    std::remove(path.c_str());
  }
}

TEST_F(AllocPathTest, RecordLabelsOnIsTheOnlySteadyStateAllocator) {
  if (!harness::alloc_counting_active()) {
    GTEST_SKIP() << "sanitizer build owns the allocator";
  }
  // Sanity check on the probe itself: with record_labels on, the pred/truth
  // vectors grow and allocations do happen (amortised doubling).
  PipelineConfig cfg;
  cfg.packet_threshold_n = 1u << 30;
  cfg.record_labels = true;
  Pipeline pipe(cfg, model());
  SimStats st;
  double ts = 0.0;
  const std::size_t before = harness::alloc_count();
  for (int i = 0; i < 5000; ++i) pipe.process(mk(ts += 0.0001, 100, 9, 9000), st);
  EXPECT_GT(harness::alloc_count() - before, 0u);
}

}  // namespace
}  // namespace iguard::switchsim
