// Fleet-scale deployment simulator (switchsim/fleet.hpp): per-device
// failure domains, graceful degradation (backpressure, stale serving,
// dead letters), deterministic recovery, N=1 parity with the single-switch
// sharded replay, and conservation of every digest and install op.
#include <gtest/gtest.h>


#include "core/model_swap.hpp"
#include "fault_audit.hpp"
#include "ml/rng.hpp"
#include "obs_off.hpp"

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

/// Synthetic mixed trace (same shape as the replay tests): malicious flows
/// send large packets, so the min-size whitelist separates the classes.
traffic::Trace make_trace(std::size_t flows, std::size_t packets_per_flow, ml::Rng& rng) {
  traffic::Trace t;
  for (std::size_t f = 0; f < flows; ++f) {
    const bool mal = f % 3 == 0;
    traffic::FiveTuple ft{0x0A000000u + static_cast<std::uint32_t>(f),
                          0x0B000000u + static_cast<std::uint32_t>(f % 11),
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

class FleetTest : public ::testing::Test {
 protected:
  FleetTest() {
    ml::Matrix fake(2, kSwitchFlFeatures);
    for (std::size_t j = 0; j < kSwitchFlFeatures; ++j) {
      fake(0, j) = 0.0;
      fake(1, j) = 1e6;
    }
    quant_.fit(fake);
    wl_.tree_count = 1;
    std::vector<rules::FieldRange> box(kSwitchFlFeatures, {0, quant_.domain_max()});
    box[5] = {0, quant_.quantize_value(5, 600.0)};  // admit small-packet flows
    wl_.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
  }

  DeployedModel model() const { return core::build_bundle(1, wl_, quant_); }

  PipelineConfig pipe_cfg() const {
    PipelineConfig cfg;
    cfg.packet_threshold_n = 4;
    cfg.idle_timeout_delta = 10.0;
    return cfg;
  }

  /// Fault programme that exercises every failure-domain mechanism.
  static FleetFaultConfig faulty_profile(std::uint64_t seed) {
    FleetFaultConfig f;
    f.seed = seed;
    f.digest_loss_rate = 0.1;
    f.install_failure_rate = 0.2;
    f.crash_rate = 0.2;
    f.crash_duration_s = 0.08;
    f.partition_rate = 0.25;
    f.partition_duration_s = 0.1;
    f.check_interval_s = 0.05;
    return f;
  }

  rules::Quantizer quant_{16};
  core::VoteWhitelist wl_;
};

// --- failure-domain schedules -------------------------------------------------

TEST(FaultWindows, DeterministicWithDrawCountFixedByHorizon) {
  const auto a = generate_fault_windows(42, 0.5, 0.2, 0.1, 3.0);
  const auto b = generate_fault_windows(42, 0.5, 0.2, 0.1, 3.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].start_s, b[i].start_s);
    EXPECT_DOUBLE_EQ(a[i].duration_s, b[i].duration_s);
  }
  // rate 1 opens a window at every check step: count is fixed by the horizon.
  EXPECT_EQ(generate_fault_windows(42, 1.0, 0.2, 0.5, 2.0).size(), 5u);  // t=0,.5,1,1.5,2
  EXPECT_TRUE(generate_fault_windows(42, 0.0, 0.2, 0.1, 3.0).empty());
  EXPECT_TRUE(generate_fault_windows(42, 0.5, 0.0, 0.1, 3.0).empty());
}

TEST(DarkScheduleTest, MergesOverlappingAndAdjacentWindows) {
  const DarkSchedule s({{1.5, 1.0}, {1.0, 1.0}, {2.5, 0.5}, {5.0, 0.5}, {4.0, 0.0}});
  // [1,2) + [1.5,2.5) + [2.5,3) coalesce into [1,3); zero-length dropped.
  ASSERT_EQ(s.windows().size(), 2u);
  EXPECT_DOUBLE_EQ(s.windows()[0].start_s, 1.0);
  EXPECT_DOUBLE_EQ(s.windows()[0].end_s(), 3.0);
  EXPECT_FALSE(s.down_at(0.99));
  EXPECT_TRUE(s.down_at(1.0));
  EXPECT_TRUE(s.down_at(2.5));
  EXPECT_FALSE(s.down_at(3.0));  // half-open
  EXPECT_TRUE(s.down_at(5.2));
  EXPECT_DOUBLE_EQ(s.up_after(1.7), 3.0);
  EXPECT_DOUBLE_EQ(s.up_after(3.5), 3.5);  // already up: identity
  EXPECT_DOUBLE_EQ(s.up_after(5.0), 5.5);
}

// --- tenant partition ---------------------------------------------------------

TEST_F(FleetTest, DeviceOfIsDirectionInvariant) {
  ml::Rng rng(3);
  for (const auto mode : {TenantPartition::kFlowHash, TenantPartition::kSrcSubnet}) {
    FleetConfig fc;
    fc.devices = 5;
    fc.partition = mode;
    for (int i = 0; i < 100; ++i) {
      traffic::FiveTuple ft{static_cast<std::uint32_t>(rng.integer(1, 1 << 30)),
                            static_cast<std::uint32_t>(rng.integer(1, 1 << 30)),
                            static_cast<std::uint16_t>(rng.integer(1, 65535)),
                            static_cast<std::uint16_t>(rng.integer(1, 65535)),
                            traffic::kProtoUdp};
      const std::size_t d = device_of(ft, fc);
      EXPECT_LT(d, fc.devices);
      EXPECT_EQ(d, device_of(ft.reversed(), fc));
    }
  }
}

TEST_F(FleetTest, PartitionByTenantIsFlowDisjointAndOrderPreserving) {
  ml::Rng rng(5);
  const auto trace = make_trace(60, 6, rng);
  FleetConfig fc;
  fc.devices = 4;
  const auto parts = partition_by_tenant(trace, fc);
  ASSERT_EQ(parts.size(), 4u);
  std::size_t total = 0;
  for (std::size_t d = 0; d < parts.size(); ++d) {
    total += parts[d].size();
    double prev = -1.0;
    for (const auto& p : parts[d].packets) {
      EXPECT_EQ(device_of(p.ft, fc), d);
      EXPECT_GE(p.ts, prev);
      prev = p.ts;
    }
  }
  EXPECT_EQ(total, trace.size());
}

// --- N=1 parity ---------------------------------------------------------------

TEST_F(FleetTest, SingleDeviceFaultsOffIsByteIdenticalToShardedReplay) {
  // The fleet wrapper around one device with fleet faults off must be
  // invisible: identical SimStats (operator==, so every counter, label
  // vector, fault and swap field) and identical obs exports outside the
  // fleet controller's own namespace and "timing.".
  ml::Rng rng(7);
  const auto trace = make_trace(80, 8, rng);
  const auto dm = model();
  ReplayConfig rc;
  rc.shards = 4;

  obs::Registry reg_sharded, reg_fleet;
  PipelineConfig cfg = pipe_cfg();
  cfg.metrics = &reg_sharded;
  const auto sharded = replay_sharded(trace, cfg, dm, rc);

  cfg.metrics = &reg_fleet;
  FleetConfig fc;
  fc.devices = 1;
  fc.replay = rc;
  const auto fleet = replay_fleet(trace, cfg, dm, fc);

  EXPECT_TRUE(fleet.stats == sharded.stats);
  EXPECT_GT(fleet.stats.packets, 0u);
  EXPECT_GT(fleet.fleet.digests_observed, 0u) << "tap produced no digest stream";
  EXPECT_EQ(fleet.fleet.digests_observed, fleet.stats.faults.digests_received);

  const std::string fleet_ns = cfg.metrics_prefix + ".fleet";
  const std::string_view base_drop[] = {"timing."};
  const std::string_view fleet_drop[] = {"timing.", fleet_ns};
  const auto a = obs::without_prefixes(reg_sharded.snapshot(), base_drop);
  const auto b = obs::without_prefixes(reg_fleet.snapshot(), fleet_drop);
  EXPECT_EQ(a.scalars, b.scalars);
  EXPECT_EQ(a.series, b.series);
  EXPECT_TRUE(AuditFleetConservation(fleet, trace.size()));
}

// --- FleetController unit behaviour ------------------------------------------

TEST(FleetControllerTest, DedupsAcrossDevicesAndBatchesBySize) {
  FleetControllerConfig cc;
  cc.batch_size = 3;
  FleetController fc(cc, {FleetController::FailureDomain{}});
  const auto a = mk(0, 0, 1, 1).ft;
  const auto c = mk(0, 0, 3, 3).ft;
  const auto d = mk(0, 0, 4, 4).ft;
  fc.on_digest(0, {a, 1}, 0.0);  // intent 1: pending
  fc.on_digest(0, {a, 1}, 0.1);  // duplicate key: suppressed
  fc.on_digest(0, {mk(0, 0, 2, 2).ft, 0}, 0.2);  // benign: no intent
  fc.on_digest(0, {c, 1}, 0.3);  // intent 2: pending
  EXPECT_EQ(fc.fleet_stats().batches, 0u) << "flushed before the batch filled";
  fc.on_digest(0, {d, 1}, 0.4);  // intent 3: flush
  EXPECT_EQ(fc.fleet_stats().batches, 1u);
  fc.finish();
  const auto& st = fc.fleet_stats();
  EXPECT_EQ(st.digests_observed, 5u);
  EXPECT_EQ(st.install_intents, 3u);
  EXPECT_EQ(st.dedup_suppressed, 1u);
  EXPECT_EQ(st.benign_digests, 1u);
  EXPECT_EQ(st.installs_applied, 3u);
  EXPECT_EQ(fc.rules_resident(0), 3u);
}

TEST(FleetControllerTest, BatchIntervalFlushesPendingIntents) {
  FleetControllerConfig cc;
  cc.batch_size = 100;  // size alone would never flush
  cc.batch_interval_s = 1.0;
  FleetController fc(cc, {FleetController::FailureDomain{}});
  fc.on_digest(0, {mk(0, 0, 1, 1).ft, 1}, 0.0);
  EXPECT_EQ(fc.fleet_stats().batches, 0u);
  fc.on_digest(0, {mk(0, 0, 2, 2).ft, 1}, 1.5);  // interval elapsed: flush first
  EXPECT_EQ(fc.fleet_stats().batches, 1u);
  fc.finish();  // drains the second intent
  EXPECT_EQ(fc.fleet_stats().batches, 2u);
  EXPECT_EQ(fc.fleet_stats().installs_applied, 2u);
}

TEST(FleetControllerTest, BroadcastFansOutToEveryDeviceSourceOnlyDoesNot) {
  for (const bool broadcast : {true, false}) {
    FleetControllerConfig cc;
    cc.broadcast = broadcast;
    FleetController fc(cc, std::vector<FleetController::FailureDomain>(3));
    fc.on_digest(1, {mk(0, 0, 1, 1).ft, 1}, 0.0);
    fc.finish();
    EXPECT_EQ(fc.fleet_stats().install_ops_addressed, broadcast ? 3u : 1u);
    EXPECT_EQ(fc.rules_resident(0), broadcast ? 1u : 0u);
    EXPECT_EQ(fc.rules_resident(1), 1u);  // the source always gets the rule
    EXPECT_EQ(fc.rules_resident(2), broadcast ? 1u : 0u);
  }
}

TEST(FleetControllerTest, DarkDeviceServesStaleAndCatchesUpAtRejoin) {
  // Device 1 is dark in [1, 2): the install addressed to it is deferred to
  // the window's end (stale serving, no blocking) while device 0 applies
  // immediately; the lag shows up in the staleness high-water mark.
  FleetController::FailureDomain d0, d1;
  d1.dark = DarkSchedule({{1.0, 1.0}});
  FleetController fc({}, {d0, d1});
  fc.on_digest(0, {mk(0, 0, 1, 1).ft, 1}, 1.5);
  fc.advance_to(1.99);
  EXPECT_EQ(fc.rules_resident(0), 1u);
  EXPECT_EQ(fc.rules_resident(1), 0u) << "installed on a dark device";
  EXPECT_EQ(fc.device_stats(1).deferred_while_dark, 1u);
  fc.advance_to(2.0);
  EXPECT_EQ(fc.rules_resident(1), 1u);
  fc.finish();
  EXPECT_DOUBLE_EQ(fc.device_stats(0).staleness_hwm_s, 0.0);
  EXPECT_DOUBLE_EQ(fc.device_stats(1).staleness_hwm_s, 0.5);
  EXPECT_DOUBLE_EQ(fc.fleet_stats().staleness_hwm_s, 0.5);
  EXPECT_EQ(fc.fleet_stats().devices_degraded_hwm, 1u);
}

TEST(FleetControllerTest, InstallRetriesThenDeadLetters) {
  FleetControllerConfig cc;
  cc.install_failure_rate = 1.0;  // every attempt fails
  cc.max_install_retries = 2;
  cc.retry_backoff_s = 0.01;
  cc.retry_backoff_cap_s = 0.02;
  FleetController fc(cc, {FleetController::FailureDomain{}});
  fc.on_digest(0, {mk(0, 0, 1, 1).ft, 1}, 0.0);
  fc.finish();
  const auto& st = fc.device_stats(0);
  EXPECT_EQ(st.install_failures, 3u);  // first try + 2 retries
  EXPECT_EQ(st.install_retries, 2u);
  EXPECT_EQ(st.dead_letters, 1u);
  EXPECT_EQ(st.installs_applied, 0u);
  EXPECT_EQ(st.installs_enqueued, st.installs_applied + st.dead_letters);
  EXPECT_EQ(fc.fleet_stats().dead_letters, 1u);
  EXPECT_EQ(fc.rules_resident(0), 0u) << "no rejoin window: the rule stays missing";
}

TEST(FleetControllerTest, BackpressureDeadLettersThenRejoinResyncs) {
  // Queue capacity 1 with slow installs: the 2nd and 3rd rules are
  // backpressure-dropped into the missed set, then re-synced in one
  // coalesced catch-up when the crash window ends at t=1.
  FleetController::FailureDomain dom;
  dom.dark = DarkSchedule({{0.5, 0.5}});
  FleetControllerConfig cc;
  cc.install_queue_capacity = 1;
  cc.install_latency_s = 10.0;
  FleetController fc(cc, {dom});
  fc.on_digest(0, {mk(0, 0, 1, 1).ft, 1}, 0.0);
  fc.on_digest(0, {mk(0, 0, 2, 2).ft, 1}, 0.1);
  fc.on_digest(0, {mk(0, 0, 3, 3).ft, 1}, 0.2);
  fc.finish();
  const auto& st = fc.device_stats(0);
  EXPECT_EQ(st.installs_enqueued, 1u);
  EXPECT_EQ(st.backpressure_drops, 2u);
  EXPECT_EQ(st.catchup_installs, 2u);
  EXPECT_EQ(st.installs_applied, 1u);  // the in-flight op lands at t=10
  EXPECT_EQ(st.dead_letters, 0u);
  EXPECT_EQ(st.queue_hwm, 1u);
  EXPECT_EQ(fc.rules_resident(0), 3u) << "re-sync must leave no rule missing";
  EXPECT_EQ(fc.fleet_stats().install_ops_addressed, 3u);
  EXPECT_EQ(fc.fleet_stats().backlog_hwm, 1u);
}

// --- fleet determinism and conservation --------------------------------------

TEST_F(FleetTest, FaultyFleetIsBitIdenticalAcrossWorkerThreadCounts) {
  ml::Rng rng(11);
  const auto trace = make_trace(120, 6, rng);
  const auto dm = model();
  FleetConfig fc;
  fc.devices = 4;
  fc.replay.shards = 2;
  fc.faults = faulty_profile(0xF1EE70ull);
  fc.control.batch_size = 4;
  fc.control.install_latency_s = 0.005;
  fc.control.install_failure_rate = 0.1;
  fc.control.install_queue_capacity = 4;
  fc.control.max_install_retries = 2;

  fc.num_threads = 1;
  fc.replay.num_threads = 1;
  const auto base = replay_fleet(trace, pipe_cfg(), dm, fc);
  EXPECT_TRUE(AuditFleetConservation(base, trace.size()));
  for (const std::size_t t : {2u, 4u, 8u}) {
    fc.num_threads = t;
    fc.replay.num_threads = t;
    const auto run = replay_fleet(trace, pipe_cfg(), dm, fc);
    EXPECT_TRUE(run.stats == base.stats) << "threads=" << t;
    EXPECT_TRUE(run.fleet == base.fleet) << "threads=" << t;
    EXPECT_TRUE(run.device_control == base.device_control) << "threads=" << t;
    for (std::size_t d = 0; d < base.per_device.size(); ++d) {
      EXPECT_TRUE(run.per_device[d] == base.per_device[d]) << "threads=" << t << " dev=" << d;
    }
  }
}

TEST_F(FleetTest, RandomizedFaultSchedulesAreDeterministicAndConserved) {
  // Property (issue satellite): under randomized per-device fault schedules,
  // capped-exponential-backoff retry counts and dead-letter totals are a
  // pure function of the seed — identical on a second run — and every
  // conservation identity holds at every shard count.
  ml::Rng rng(13);
  const auto trace = make_trace(90, 6, rng);
  const auto dm = model();
  std::size_t faults_exercised = 0;
  for (const std::uint64_t seed : {3ull, 17ull, 91ull}) {
    for (const std::size_t shards : {1u, 2u, 4u}) {
      FleetConfig fc;
      fc.devices = 3;
      fc.replay.shards = shards;
      fc.faults = faulty_profile(seed);
      fc.control.install_failure_rate = 0.3;
      fc.control.max_install_retries = 3;
      fc.control.retry_backoff_s = 0.002;
      fc.control.retry_backoff_cap_s = 0.008;
      fc.control.install_queue_capacity = 2;
      fc.control.install_latency_s = 0.01;
      const auto a = replay_fleet(trace, pipe_cfg(), dm, fc);
      const auto b = replay_fleet(trace, pipe_cfg(), dm, fc);
      const std::string cell =
          "seed=" + std::to_string(seed) + " shards=" + std::to_string(shards);
      EXPECT_TRUE(a.fleet == b.fleet) << cell;
      EXPECT_TRUE(a.device_control == b.device_control) << cell;
      EXPECT_TRUE(a.stats == b.stats) << cell;
      EXPECT_TRUE(AuditFleetConservation(a, trace.size())) << cell;
      for (const auto& dc : a.device_control) {
        faults_exercised += dc.install_retries + dc.dead_letters + dc.backpressure_drops +
                            dc.deferred_while_dark + dc.digests_lost_dark;
      }
    }
  }
  EXPECT_GT(faults_exercised, 0u) << "fault programme never fired: property is vacuous";
}

TEST_F(FleetTest, ObsExportsPerDevicePrefixesAndFleetAggregates) {
  ml::Rng rng(17);
  const auto trace = make_trace(60, 6, rng);
  const auto dm = model();
  obs::Registry reg;
  PipelineConfig cfg = pipe_cfg();
  cfg.metrics = &reg;
  FleetConfig fc;
  fc.devices = 2;
  fc.replay.shards = 2;
  const auto out = replay_fleet(trace, cfg, dm, fc);
  EXPECT_TRUE(AuditFleetConservation(out, trace.size()));
  IGUARD_SKIP_IF_OBS_OFF();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.scalars.at("pipeline.fleet.digests"),
            static_cast<double>(out.fleet.digests_observed));
  EXPECT_EQ(snap.scalars.at("pipeline.fleet.installs"),
            static_cast<double>(out.fleet.installs_applied));
  EXPECT_EQ(snap.scalars.count("pipeline.fleet.dev0.install_queue"), 1u);
  EXPECT_EQ(snap.scalars.count("pipeline.fleet.dev1.rules_resident"), 1u);
  EXPECT_EQ(snap.scalars.count("pipeline.fleet.staleness_s.count"), 1u);
  EXPECT_EQ(snap.series.count("pipeline.fleet.backlog"), 1u);
  EXPECT_EQ(snap.series.count("pipeline.fleet.devices_degraded"), 1u);
  // Each device's data-plane pipeline exports under its own prefix.
  bool dev0 = false, dev1 = false;
  for (const auto& [k, v] : snap.scalars) {
    if (k.rfind("pipeline.dev0.", 0) == 0) dev0 = true;
    if (k.rfind("pipeline.dev1.", 0) == 0) dev1 = true;
  }
  EXPECT_TRUE(dev0);
  EXPECT_TRUE(dev1);
}

// --- audits reject broken accounting -----------------------------------------

TEST(FleetAudit, DetectsViolatedIdentities) {
  SimStats s;
  EXPECT_EQ(audit_sim_conservation(s), "");  // all-zero stats are conserved
  s.packets = 1;
  EXPECT_NE(audit_sim_conservation(s), "") << "lost packet must fail the audit";

  FleetResult r;
  EXPECT_NE(audit_fleet_conservation(r, 1), "") << "missing device packets must fail";
  EXPECT_EQ(audit_fleet_conservation(r, 0), "");
}

}  // namespace
}  // namespace iguard::switchsim
