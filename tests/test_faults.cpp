// Fault-aware control plane (switchsim/faults.hpp): event clock, bounded
// channel, install latency, retry/backoff, dead letters, crash recovery,
// and run-to-run determinism.
#include <gtest/gtest.h>

#include "fault_audit.hpp"
#include "switchsim/faults.hpp"
#include "switchsim/pipeline.hpp"

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

// --- SplitMix64 / FaultInjector ---------------------------------------------

TEST(SplitMix64, KnownSequence) {
  // Reference values for seed 1234567 (Vigna's splitmix64 test vector).
  SplitMix64 rng(1234567);
  EXPECT_EQ(rng.next(), 6457827717110365317ull);
  EXPECT_EQ(rng.next(), 3203168211198807973ull);
  EXPECT_EQ(rng.next(), 9817491932198370423ull);
}

TEST(SplitMix64, ChanceEdgeCasesConsumeNothing) {
  SplitMix64 a(42), b(42);
  EXPECT_FALSE(a.chance(0.0));
  EXPECT_TRUE(a.chance(1.0));
  // p=0 and p=1 short-circuit without consuming a draw: streams still equal.
  EXPECT_EQ(a.next(), b.next());
}

TEST(FaultInjector, StreamsAreIndependent) {
  // Enabling one fault type must not perturb another's decision sequence.
  FaultConfig only_drop;
  only_drop.digest_loss_rate = 0.5;
  FaultConfig both = only_drop;
  both.install_failure_rate = 0.5;
  FaultInjector a(only_drop), b(both);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.drop_digest(), b.drop_digest());
}

TEST(FaultInjector, CrashWindowMembership) {
  FaultConfig cfg;
  cfg.crashes = {{1.0, 0.5}, {3.0, 1.0}};
  FaultInjector inj(cfg);
  EXPECT_FALSE(inj.down_at(0.99));
  EXPECT_TRUE(inj.down_at(1.0));
  EXPECT_TRUE(inj.down_at(1.49));
  EXPECT_FALSE(inj.down_at(1.5));  // half-open window
  EXPECT_TRUE(inj.down_at(3.5));
  EXPECT_FALSE(inj.down_at(4.0));
}

// --- Controller event clock ---------------------------------------------------

TEST(AsyncController, InstallLandsAtDigestTsPlusLatency) {
  BlacklistTable bl(8);
  ControlPlaneConfig cfg;
  cfg.control_latency_s = 0.5;
  Controller ctl(bl, cfg);
  const auto ft = mk(0.0, 100).ft;
  ctl.on_digest({ft, 1}, 1.0);
  ctl.advance_to(1.4);
  EXPECT_FALSE(bl.contains(ft)) << "install visible before digest_ts + latency";
  ctl.advance_to(1.5);
  EXPECT_TRUE(bl.contains(ft));
  EXPECT_EQ(ctl.rules_installed(), 1u);
}

TEST(AsyncController, BoundedChannelDropsOverflow) {
  BlacklistTable bl(64);
  ControlPlaneConfig cfg;
  cfg.control_latency_s = 10.0;  // keep everything in flight
  cfg.channel_capacity = 3;
  Controller ctl(bl, cfg);
  for (std::uint16_t i = 1; i <= 5; ++i) ctl.on_digest({mk(0, 0, i, i).ft, 1}, 0.0);
  EXPECT_EQ(ctl.backlog(), 3u);
  EXPECT_EQ(ctl.fault_stats().channel_overflow_drops, 2u);
  EXPECT_EQ(ctl.fault_stats().backlog_hwm, 3u);
  EXPECT_EQ(ctl.digests_received(), 5u);  // channel-mouth accounting unchanged
  ctl.flush();
  EXPECT_EQ(ctl.rules_installed(), 3u);
  EXPECT_EQ(ctl.backlog(), 0u);
}

TEST(AsyncController, InjectedDigestLoss) {
  BlacklistTable bl(64);
  ControlPlaneConfig cfg;
  cfg.faults.seed = 7;
  cfg.faults.digest_loss_rate = 1.0;
  Controller ctl(bl, cfg);
  ctl.on_digest({mk(0, 0, 1, 1).ft, 1}, 0.0);
  ctl.flush();
  EXPECT_EQ(bl.size(), 0u);
  EXPECT_EQ(ctl.fault_stats().injected_digest_drops, 1u);
}

TEST(AsyncController, DelayedDigestArrivesLater) {
  BlacklistTable bl(64);
  ControlPlaneConfig cfg;
  cfg.faults.digest_delay_rate = 1.0;
  cfg.faults.digest_delay_s = 2.0;
  Controller ctl(bl, cfg);
  const auto ft = mk(0, 0, 1, 1).ft;
  ctl.on_digest({ft, 1}, 0.0);
  ctl.advance_to(1.9);
  EXPECT_FALSE(bl.contains(ft));
  ctl.advance_to(2.0);
  EXPECT_TRUE(bl.contains(ft));
  EXPECT_EQ(ctl.fault_stats().delayed_digests, 1u);
}

TEST(AsyncController, InstallRetriesThenDeadLetters) {
  BlacklistTable bl(64);
  ControlPlaneConfig cfg;
  cfg.max_install_retries = 3;
  cfg.retry_backoff_s = 0.01;
  cfg.retry_backoff_cap_s = 0.02;
  cfg.faults.install_failure_rate = 1.0;  // every attempt fails
  Controller ctl(bl, cfg);
  ctl.on_digest({mk(0, 0, 1, 1).ft, 1}, 0.0);
  ctl.flush();
  const auto& fs = ctl.fault_stats();
  EXPECT_EQ(fs.install_attempts, 4u);  // 1 first try + 3 retries
  EXPECT_EQ(fs.install_failures, 4u);
  EXPECT_EQ(fs.install_retries, 3u);
  EXPECT_EQ(fs.dead_letters, 1u);
  EXPECT_EQ(ctl.rules_installed(), 0u);
  EXPECT_EQ(bl.size(), 0u);
}

TEST(AsyncController, RetryBackoffIsCappedExponential) {
  BlacklistTable bl(64);
  ControlPlaneConfig cfg;
  cfg.max_install_retries = 8;
  cfg.retry_backoff_s = 0.010;
  cfg.retry_backoff_cap_s = 0.035;
  cfg.faults.install_failure_rate = 1.0;
  Controller ctl(bl, cfg);
  ctl.on_digest({mk(0, 0, 1, 1).ft, 1}, 0.0);
  // Backoffs: 10, 20, 35 (capped), 35, ... ms. After attempt k the next
  // retry is due at the cumulative sum; the final dead-letter lands at
  // 10 + 20 + 35*6 = 240 ms.
  ctl.advance_to(0.009);
  EXPECT_EQ(ctl.fault_stats().install_attempts, 1u);
  ctl.advance_to(0.010);
  EXPECT_EQ(ctl.fault_stats().install_attempts, 2u);
  ctl.advance_to(0.030);
  EXPECT_EQ(ctl.fault_stats().install_attempts, 3u);
  ctl.advance_to(0.065);
  EXPECT_EQ(ctl.fault_stats().install_attempts, 4u);
  ctl.flush();
  EXPECT_EQ(ctl.fault_stats().dead_letters, 1u);
}

TEST(AsyncController, BenignDigestsNeverAttemptInstalls) {
  BlacklistTable bl(64);
  ControlPlaneConfig cfg;
  cfg.faults.install_failure_rate = 1.0;
  Controller ctl(bl, cfg);
  ctl.on_digest({mk(0, 0, 1, 1).ft, 0}, 0.0);
  ctl.flush();
  EXPECT_EQ(ctl.fault_stats().install_attempts, 0u);
  EXPECT_EQ(ctl.fault_stats().dead_letters, 0u);
}

TEST(AsyncController, CrashWindowLosesDigestsAndRecoversFromFlowStore) {
  // Flow store holds a malicious-labelled resident; digests sent during the
  // outage are lost, and the restart sweep reinstalls from the registers.
  FlowStore store(16);
  const auto mal = mk(0.0, 100, 7, 7, true);
  auto acc = store.access(mal.ft);
  acc.state->update(mal, store.signature(mal.ft));
  acc.state->label = 1;

  BlacklistTable bl(64);
  ControlPlaneConfig cfg;
  cfg.faults.crashes = {{1.0, 1.0}};
  Controller ctl(bl, cfg, &store);
  ctl.on_digest({mal.ft, 1}, 1.5);  // controller down: lost
  ctl.advance_to(1.9);
  EXPECT_EQ(bl.size(), 0u);
  EXPECT_EQ(ctl.fault_stats().digests_lost_to_crash, 1u);
  ctl.advance_to(2.5);  // past the window end: restart + recovery sweep
  EXPECT_EQ(ctl.fault_stats().crashes, 1u);
  EXPECT_EQ(ctl.fault_stats().recovery_installs, 1u);
  EXPECT_TRUE(bl.contains(mal.ft));
}

TEST(AsyncController, DeliveryDuringCrashWindowIsLost) {
  // Digest sent while up, due while down: lost at delivery time.
  BlacklistTable bl(64);
  ControlPlaneConfig cfg;
  cfg.control_latency_s = 1.0;
  cfg.faults.crashes = {{1.2, 1.0}};
  Controller ctl(bl, cfg);
  const auto ft = mk(0, 0, 1, 1).ft;
  ctl.on_digest({ft, 1}, 0.5);  // due at 1.5, inside the window
  ctl.flush();
  EXPECT_FALSE(bl.contains(ft));
  EXPECT_EQ(ctl.fault_stats().digests_lost_to_crash, 1u);
}

// --- Pipeline integration -----------------------------------------------------

class FaultPipelineTest : public ::testing::Test {
 protected:
  FaultPipelineTest() {
    ml::Matrix fake(2, kSwitchFlFeatures);
    for (std::size_t j = 0; j < kSwitchFlFeatures; ++j) {
      fake(0, j) = 0.0;
      fake(1, j) = 1e6;
    }
    quant_.fit(fake);
    deny_.tree_count = 1;
    deny_.tables.emplace_back(std::vector<rules::RangeRule>{});  // match nothing
  }

  Pipeline make(PipelineConfig cfg) {
    return Pipeline(cfg, core::build_bundle(1, deny_, quant_));  // every flow is malicious
  }

  rules::Quantizer quant_{16};
  core::VoteWhitelist deny_;
};

TEST_F(FaultPipelineTest, ZeroLatencyMatchesLockstepBehaviour) {
  PipelineConfig cfg;
  cfg.packet_threshold_n = 2;
  Pipeline pipe = make(cfg);
  SimStats st;
  pipe.process(mk(0.0, 100, 1, 1, true), st);  // brown
  pipe.process(mk(0.1, 100, 1, 1, true), st);  // blue -> malicious digest
  pipe.process(mk(0.2, 100, 1, 1, true), st);  // red: install landed
  EXPECT_EQ(st.path(Path::kRed), 1u);
  EXPECT_EQ(pipe.blacklist().size(), 1u);
  const auto& fs = pipe.controller().fault_stats();
  EXPECT_EQ(fs.channel_overflow_drops, 0u);
  EXPECT_EQ(fs.injected_digest_drops, 0u);
  EXPECT_EQ(fs.dead_letters, 0u);
  EXPECT_EQ(fs.crashes, 0u);
}

TEST_F(FaultPipelineTest, InstallWindowDefersRedPath) {
  PipelineConfig cfg;
  cfg.packet_threshold_n = 2;
  cfg.control.control_latency_s = 0.25;
  Pipeline pipe = make(cfg);
  SimStats st;
  pipe.process(mk(0.0, 100, 1, 1, true), st);  // brown
  pipe.process(mk(0.1, 100, 1, 1, true), st);  // blue: digest at 0.1
  pipe.process(mk(0.2, 100, 1, 1, true), st);  // install due 0.35: purple, not red
  EXPECT_EQ(st.path(Path::kRed), 0u);
  EXPECT_EQ(st.path(Path::kPurple), 1u);
  pipe.process(mk(0.4, 100, 1, 1, true), st);  // past 0.35: red
  EXPECT_EQ(st.path(Path::kRed), 1u);
}

TEST_F(FaultPipelineTest, CrashMidTraceRecoversBlacklistFromResidentLabels) {
  // Acceptance scenario: a controller crash swallows the install; after the
  // restart the recovery sweep rebuilds the rule from the flow-label
  // register still resident in the FlowStore, and enforcement resumes.
  PipelineConfig cfg;
  cfg.packet_threshold_n = 2;
  cfg.control.faults.crashes = {{0.05, 0.5}};  // down for [0.05, 0.55)
  Pipeline pipe = make(cfg);
  SimStats st;
  pipe.process(mk(0.0, 100, 1, 1, true), st);  // brown
  pipe.process(mk(0.1, 100, 1, 1, true), st);  // blue: digest lost (down)
  pipe.process(mk(0.2, 100, 1, 1, true), st);  // purple (label), blacklist empty
  EXPECT_EQ(pipe.blacklist().size(), 0u);
  EXPECT_EQ(pipe.controller().fault_stats().digests_lost_to_crash, 1u);
  pipe.process(mk(0.6, 100, 2, 2, false), st);  // clock passes 0.55: recovery
  EXPECT_EQ(pipe.controller().fault_stats().crashes, 1u);
  EXPECT_EQ(pipe.controller().fault_stats().recovery_installs, 1u);
  EXPECT_EQ(pipe.blacklist().size(), 1u);
  pipe.process(mk(0.7, 100, 1, 1, true), st);  // red again
  EXPECT_EQ(st.path(Path::kRed), 1u);
}

TEST_F(FaultPipelineTest, LeakedPacketsCountAdmittedPostClassification) {
  // Drop every digest and give the malicious flow's slot away, so later
  // packets of the classified-malicious flow are admitted via PL verdicts:
  // each admitted packet is a leak.
  PipelineConfig cfg;
  cfg.packet_threshold_n = 2;
  cfg.flow_slots = 1;  // single slot per table: easy to evict
  cfg.control.faults.digest_loss_rate = 1.0;
  Pipeline pipe = make(cfg);
  SimStats st;
  pipe.process(mk(0.00, 100, 1, 1, true), st);  // brown
  pipe.process(mk(0.01, 100, 1, 1, true), st);  // blue: classified, digest lost
  // Two other flows evict/occupy both candidate slots of flow 1.
  pipe.process(mk(0.02, 100, 2, 2), st);
  pipe.process(mk(0.03, 100, 3, 3), st);
  pipe.process(mk(0.04, 100, 4, 4), st);
  const std::size_t red_before = st.path(Path::kRed);
  pipe.process(mk(0.05, 100, 1, 1, true), st);  // classified flow, no state left
  EXPECT_EQ(st.path(Path::kRed), red_before);  // blacklist never installed
  EXPECT_GE(st.faults.leaked_packets, 1u);
}

TEST_F(FaultPipelineTest, FaultRunsAreDeterministic) {
  PipelineConfig cfg;
  cfg.packet_threshold_n = 2;
  cfg.control.control_latency_s = 0.01;
  cfg.control.channel_capacity = 4;
  cfg.control.faults.seed = 99;
  cfg.control.faults.digest_loss_rate = 0.3;
  cfg.control.faults.digest_delay_rate = 0.2;
  cfg.control.faults.digest_delay_s = 0.05;
  cfg.control.faults.install_failure_rate = 0.25;
  cfg.control.faults.crashes = {{0.2, 0.1}};

  traffic::Trace t;
  for (int i = 0; i < 400; ++i)
    t.packets.push_back(mk(0.002 * i, 100, 1 + i % 17, static_cast<std::uint16_t>(1 + i % 5),
                           i % 3 == 0));

  const SimStats a = make(cfg).run(t);
  const SimStats b = make(cfg).run(t);
  EXPECT_TRUE(AuditSimConservation(a));
  EXPECT_EQ(a.pred, b.pred);
  EXPECT_EQ(a.path_count, b.path_count);
  EXPECT_EQ(a.faults.injected_digest_drops, b.faults.injected_digest_drops);
  EXPECT_EQ(a.faults.channel_overflow_drops, b.faults.channel_overflow_drops);
  EXPECT_EQ(a.faults.delayed_digests, b.faults.delayed_digests);
  EXPECT_EQ(a.faults.install_retries, b.faults.install_retries);
  EXPECT_EQ(a.faults.dead_letters, b.faults.dead_letters);
  EXPECT_EQ(a.faults.leaked_packets, b.faults.leaked_packets);
  EXPECT_EQ(a.faults.backlog_hwm, b.faults.backlog_hwm);

  // A different seed must be allowed to diverge in at least the drop tally
  // (0.3 loss over ~130 digests makes an identical sequence vanishingly
  // unlikely; equality here would indicate the seed is ignored).
  cfg.control.faults.seed = 100;
  const SimStats c = make(cfg).run(t);
  EXPECT_EQ(c.packets, a.packets);
}

TEST_F(FaultPipelineTest, RunDrainsChannelAtEndOfTrace) {
  PipelineConfig cfg;
  cfg.packet_threshold_n = 2;
  cfg.control.control_latency_s = 100.0;  // nothing lands during the trace
  Pipeline pipe = make(cfg);
  traffic::Trace t;
  t.packets.push_back(mk(0.0, 100, 1, 1, true));
  t.packets.push_back(mk(0.1, 100, 1, 1, true));
  const SimStats st = pipe.run(t);
  EXPECT_EQ(st.path(Path::kRed), 0u);
  // run() flushes: the deferred install is applied after the last packet.
  EXPECT_EQ(pipe.controller().rules_installed(), 1u);
  EXPECT_EQ(pipe.blacklist().size(), 1u);
  EXPECT_EQ(st.faults.backlog_hwm, 1u);
}

// --- benign-mirror channel ----------------------------------------------------

/// Test sink: records every delivered mirror with its event-clock time.
struct RecordingSink final : WhitelistUpdateSink {
  std::vector<std::pair<std::uint32_t, double>> delivered;  // (key[0], ts)
  void on_benign_mirror(const BenignMirror& m, double ts) override {
    delivered.emplace_back(m.key[0], ts);
  }
};

TEST(MirrorChannel, DeliveredAtEnqueueTsPlusLatency) {
  BlacklistTable bl(8);
  ControlPlaneConfig cfg;
  cfg.control_latency_s = 0.5;
  Controller ctl(bl, cfg);
  RecordingSink sink;
  ctl.set_update_sink(&sink);
  BenignMirror m;
  m.key[0] = 7;
  ctl.on_benign_mirror(m, 1.0);
  ctl.advance_to(1.4);
  EXPECT_TRUE(sink.delivered.empty()) << "mirror visible before latency elapsed";
  ctl.advance_to(1.5);
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(sink.delivered[0].first, 7u);
  EXPECT_DOUBLE_EQ(sink.delivered[0].second, 1.5);
  EXPECT_EQ(ctl.fault_stats().mirrors_enqueued, 1u);
  EXPECT_EQ(ctl.fault_stats().mirrors_delivered, 1u);
  EXPECT_EQ(ctl.fault_stats().mirrors_lost, 0u);
}

TEST(MirrorChannel, LostWhileControllerDownAtMouthOrDelivery) {
  BlacklistTable bl(8);
  ControlPlaneConfig cfg;
  cfg.control_latency_s = 1.0;
  cfg.faults.crashes = {{1.0, 0.5}};
  Controller ctl(bl, cfg);
  RecordingSink sink;
  ctl.set_update_sink(&sink);
  BenignMirror m;
  ctl.on_benign_mirror(m, 1.2);  // enqueue inside the window: lost at the mouth
  ctl.on_benign_mirror(m, 0.3);  // due at 1.3, inside the window: lost at delivery
  ctl.on_benign_mirror(m, 0.6);  // due at 1.6, after restart: delivered
  ctl.flush();
  EXPECT_EQ(ctl.fault_stats().mirrors_lost, 2u);
  EXPECT_EQ(ctl.fault_stats().mirrors_delivered, 1u);
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.delivered[0].second, 1.6);
}

TEST(MirrorChannel, SharesChannelCapacityWithDigests) {
  BlacklistTable bl(64);
  ControlPlaneConfig cfg;
  cfg.control_latency_s = 10.0;  // nothing drains during the enqueues
  cfg.channel_capacity = 2;
  Controller ctl(bl, cfg);
  const auto ft = mk(0, 0, 1, 1).ft;
  BenignMirror m;
  ctl.on_digest({ft, 1}, 0.0);
  ctl.on_benign_mirror(m, 0.1);  // fills the channel
  ctl.on_benign_mirror(m, 0.2);  // overflow: mirror dropped
  EXPECT_EQ(ctl.fault_stats().mirrors_lost, 1u);
  EXPECT_EQ(ctl.fault_stats().channel_overflow_drops, 1u);
  EXPECT_EQ(ctl.fault_stats().mirrors_enqueued, 1u);
}

TEST(MirrorChannel, MirrorFaultStreamsDoNotPerturbDigestDecisions) {
  // The mirror path draws loss/delay from its own splitmix64 streams: a
  // workload that starts emitting mirrors must see the exact same digest
  // fault sequence as before (this is what keeps pre-swap runs and
  // committed CSVs byte-identical when the loop is off... and digests
  // undisturbed when it is on).
  ControlPlaneConfig cfg;
  cfg.faults.digest_loss_rate = 0.5;
  BlacklistTable bl_a(64), bl_b(64);
  Controller a(bl_a, cfg), b(bl_b, cfg);
  RecordingSink sink;
  b.set_update_sink(&sink);
  BenignMirror m;
  for (int i = 0; i < 200; ++i) {
    const auto ft = mk(0, 0, static_cast<std::uint32_t>(i + 1), 1, true).ft;
    const double ts = 0.01 * i;
    a.on_digest({ft, 1}, ts);
    b.on_digest({ft, 1}, ts);
    b.on_benign_mirror(m, ts);  // interleaved mirrors on b only
  }
  a.flush();
  b.flush();
  EXPECT_EQ(a.fault_stats().injected_digest_drops, b.fault_stats().injected_digest_drops);
  EXPECT_EQ(a.rules_installed(), b.rules_installed());
  EXPECT_EQ(bl_a.size(), bl_b.size());
}

// --- swap loop under faults ---------------------------------------------------

/// Three-table whitelist over key[0] alone: two broad tables, one narrow —
/// a key of 50 is fully covered, 90 is majority-benign with one miss.
core::VoteWhitelist three_tables() {
  core::VoteWhitelist wl;
  wl.tree_count = 3;
  for (std::uint32_t hi : {100u, 100u, 80u}) {
    std::vector<rules::FieldRange> box(kSwitchFlFeatures, {0, 0xFFFFu});
    box[0] = {10, hi};
    wl.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
  }
  return wl;
}

TEST(SwapLoopFaults, PublishDeferredPastCrashWindow) {
  BlacklistTable bl(8);
  ControlPlaneConfig ccfg;
  ccfg.faults.crashes = {{1.0, 0.5}};  // down in [1.0, 1.5)
  Controller ctl(bl, ccfg);

  SwapConfig scfg;
  scfg.enabled = true;
  scfg.drift.window = 2;
  scfg.drift.baseline_windows = 1;
  scfg.drift.miss_rate_margin = 0.10;
  scfg.update.max_extension_per_field = 0;  // updater can never absorb the miss
  scfg.publish_after_extensions = 0;
  scfg.swap_latency_s = 0.2;
  SwapLoop loop(scfg, core::build_bundle(1, three_tables(), rules::Quantizer{16}), ctl,
                nullptr, "t");

  BenignMirror covered, missing;
  covered.key.fill(1);
  covered.key[0] = 50;
  missing.key.fill(1);
  missing.key[0] = 90;
  // Baseline window: fully covered. Second window: sustained misses, firing
  // at 0.9 — the publish is due at 1.1, inside the crash window, so it must
  // slip to the window's end (a down controller cannot program tables).
  loop.on_benign_mirror(covered, 0.5);
  loop.on_benign_mirror(covered, 0.6);
  loop.on_benign_mirror(missing, 0.8);
  loop.on_benign_mirror(missing, 0.9);
  EXPECT_EQ(loop.stats().drift_fires, 1u);
  EXPECT_EQ(loop.stats().publishes_deferred_by_crash, 1u);
  EXPECT_EQ(loop.advance_and_pin(1.2)->version, 1u) << "published while controller down";
  EXPECT_EQ(loop.advance_and_pin(1.49)->version, 1u);
  EXPECT_EQ(loop.advance_and_pin(1.5)->version, 2u) << "restart must release the publish";
  loop.finish();
  EXPECT_EQ(loop.stats().publishes, 1u);
  EXPECT_EQ(loop.stats().bundles_retired, 1u);
}

TEST(SwapLoopFaults, TriggersCoalesceWhileAPublishIsInFlight) {
  BlacklistTable bl(8);
  Controller ctl(bl, {});
  SwapConfig scfg;
  scfg.enabled = true;
  scfg.drift.window = 2;
  scfg.drift.baseline_windows = 1;
  scfg.drift.cooldown_windows = 0;
  scfg.update.max_extension_per_field = 0;
  scfg.publish_after_extensions = 0;
  scfg.swap_latency_s = 100.0;  // the first publish stays in flight throughout
  SwapLoop loop(scfg, core::build_bundle(1, three_tables(), rules::Quantizer{16}), ctl,
                nullptr, "t");
  BenignMirror covered, missing;
  covered.key.fill(1);
  covered.key[0] = 50;
  missing.key.fill(1);
  missing.key[0] = 90;
  loop.on_benign_mirror(covered, 0.1);
  loop.on_benign_mirror(covered, 0.2);
  for (int i = 0; i < 8; ++i) loop.on_benign_mirror(missing, 0.3 + 0.1 * i);
  const auto st = loop.stats();
  EXPECT_GE(st.drift_fires, 2u);
  EXPECT_EQ(st.rebuilds, 1u);  // only the first trigger built a version
  EXPECT_EQ(st.coalesced_triggers, st.drift_fires - 1);
  loop.finish();  // end-of-run drain publishes the in-flight version
  EXPECT_EQ(loop.stats().publishes, 1u);
  EXPECT_EQ(loop.stats().final_version, 2u);
}

TEST_F(FaultPipelineTest, SwapGridLosesNoPacketsUnderFaultsAndEviction) {
  // fault programme x eviction policy x swap mode: in every cell, each
  // packet takes exactly one path and lands in exactly one confusion cell,
  // and every emitted mirror is delivered or counted lost — no packet and
  // no mirror is unaccounted for, swaps or not.
  ml::Matrix fake(2, kSwitchFlFeatures);
  for (std::size_t j = 0; j < kSwitchFlFeatures; ++j) {
    fake(0, j) = 0.0;
    fake(1, j) = 1e6;
  }
  rules::Quantizer q{16};
  q.fit(fake);
  core::VoteWhitelist wl;
  wl.tree_count = 3;
  for (double cap : {900.0, 900.0, 300.0}) {
    std::vector<rules::FieldRange> box(kSwitchFlFeatures, {0, q.domain_max()});
    box[5] = {0, q.quantize_value(5, cap)};
    wl.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
  }
  const DeployedModel dm = core::build_bundle(1, std::move(wl), q);

  traffic::Trace t;
  for (int i = 0; i < 600; ++i) {
    const bool mal = i % 4 == 0;
    const std::uint16_t len = mal ? 1300 : (i < 300 ? 100 : 700);
    t.packets.push_back(mk(0.002 * i, len, 1 + i % 23,
                           static_cast<std::uint16_t>(1 + i % 5), mal));
  }

  for (const bool faulty : {false, true}) {
    for (const auto ev : {EvictionPolicy::kFifo, EvictionPolicy::kLru}) {
      for (const bool swap_on : {false, true}) {
        PipelineConfig cfg;
        cfg.packet_threshold_n = 3;
        cfg.flow_slots = 16;  // force collisions/evictions
        cfg.blacklist_capacity = 8;
        cfg.eviction = ev;
        if (faulty) {
          cfg.control.control_latency_s = 0.01;
          cfg.control.channel_capacity = 8;
          cfg.control.faults.digest_loss_rate = 0.2;
          cfg.control.faults.digest_delay_rate = 0.2;
          cfg.control.faults.digest_delay_s = 0.05;
          cfg.control.faults.install_failure_rate = 0.2;
          cfg.control.faults.crashes = {{0.3, 0.2}};
        }
        cfg.swap.enabled = swap_on;
        cfg.swap.drift.window = 8;
        cfg.swap.update.max_extension_per_field = 8;
        cfg.swap.publish_after_extensions = 0;
        cfg.swap.swap_latency_s = 0.01;
        Pipeline pipe(cfg, dm);
        const SimStats st = pipe.run(t);
        const std::string cell = std::string("faulty=") + (faulty ? "1" : "0") +
                                 " ev=" + (ev == EvictionPolicy::kFifo ? "fifo" : "lru") +
                                 " swap=" + (swap_on ? "1" : "0");
        std::size_t paths = 0;
        for (const auto c : st.path_count) paths += c;
        EXPECT_EQ(paths, st.packets) << cell;
        EXPECT_EQ(st.packets, t.size()) << cell;
        EXPECT_EQ(st.tp + st.fp + st.tn + st.fn, st.packets) << cell;
        // Full channel-mouth audit: every digest delivered, injected-dropped,
        // overflowed, or crash-lost; every install applied or failed; every
        // failure retried or dead-lettered (shared with the fleet tests).
        EXPECT_TRUE(AuditSimConservation(st)) << cell;
        if (swap_on) {
          EXPECT_EQ(st.faults.mirrors_delivered + st.faults.mirrors_lost,
                    st.benign_feature_mirrors)
              << cell;
          EXPECT_EQ(st.swap.mirrors_applied, st.faults.mirrors_delivered) << cell;
          EXPECT_EQ(st.swap.final_version, 1u + st.swap.publishes) << cell;
          EXPECT_EQ(st.swap.bundles_retired, st.swap.publishes) << cell;
        } else {
          EXPECT_EQ(st.faults.mirrors_enqueued, 0u) << cell;
          EXPECT_EQ(st.swap.final_version, 0u) << cell;
        }
      }
    }
  }
}

}  // namespace
}  // namespace iguard::switchsim
