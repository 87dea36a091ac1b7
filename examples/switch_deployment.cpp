// Switch-deployment walkthrough: train iGuard under data-plane constraints,
// compile it to per-tree whitelist tables, deploy onto the Tofino-style
// pipeline simulator, replay mixed traffic, and inspect what the switch
// actually did — the six packet paths of Fig. 4, digests, blacklist
// installs, and the RMT resource bill.
#include <fstream>
#include <iostream>

#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "harness/testbed_lab.hpp"
#include "io/replay.hpp"
#include "obs/metrics.hpp"
#include "switchsim/timing.hpp"

using namespace iguard;

int main() {
  harness::TestbedLabConfig cfg;
  cfg.attack_flows = 150;
  cfg.teacher.num_threads = 0;  // 0 = hardware concurrency
  cfg.forest.num_threads = 0;
  harness::TestbedLab lab{cfg};

  const auto atk = traffic::AttackType::kMirai;
  std::cout << "deploying iGuard and the iForest baseline; replaying benign + "
            << traffic::attack_name(atk) << " traffic...\n\n";
  const auto out = lab.run_attack(atk);

  eval::Table verdicts({"system", "macro F1", "ROC AUC", "PR AUC"});
  verdicts.add_row({"iGuard", eval::Table::num(out.iguard.macro_f1),
                    eval::Table::num(out.iguard.roc_auc), eval::Table::num(out.iguard.pr_auc)});
  verdicts.add_row({"iForest [15]", eval::Table::num(out.iforest.macro_f1),
                    eval::Table::num(out.iforest.roc_auc),
                    eval::Table::num(out.iforest.pr_auc)});
  verdicts.print(std::cout, "Per-packet verdicts");

  const auto& st = out.iguard_stats;
  eval::Table paths({"path", "meaning", "packets"});
  paths.add_row({"red", "blacklisted 5-tuple, dropped early",
                 std::to_string(st.path(switchsim::Path::kRed))});
  paths.add_row({"brown", "packets 1..n-1, PL whitelist verdict",
                 std::to_string(st.path(switchsim::Path::kBrown))});
  paths.add_row({"blue", "n-th packet / timeout, FL classification",
                 std::to_string(st.path(switchsim::Path::kBlue))});
  paths.add_row({"orange", "hash collision handling",
                 std::to_string(st.path(switchsim::Path::kOrange))});
  paths.add_row({"purple", "flow already classified, early decision",
                 std::to_string(st.path(switchsim::Path::kPurple))});
  paths.add_row({"green", "loopback mirror (label/flow-ID commit)",
                 std::to_string(st.green_mirrors)});
  std::cout << "\n";
  paths.print(std::cout, "iGuard packet execution paths (Fig. 4)");

  std::cout << "\nflows classified: " << st.flows_classified
            << ", digests sent: " << st.flows_classified
            << ", benign feature mirrors: " << st.benign_feature_mirrors
            << ", collisions: " << st.collisions << "\n";
  std::cout << "selected teacher threshold scale: " << out.selected_scale << "\n\n";

  eval::Table res({"resource", "iGuard", "iForest [15]"});
  res.add_row({"TCAM", eval::Table::pct(out.iguard_res.tcam_frac),
               eval::Table::pct(out.iforest_res.tcam_frac)});
  res.add_row({"SRAM", eval::Table::pct(out.iguard_res.sram_frac),
               eval::Table::pct(out.iforest_res.sram_frac)});
  res.add_row({"sALUs", eval::Table::pct(out.iguard_res.salu_frac),
               eval::Table::pct(out.iforest_res.salu_frac)});
  res.add_row({"VLIW", eval::Table::pct(out.iguard_res.vliw_frac),
               eval::Table::pct(out.iforest_res.vliw_frac)});
  res.add_row({"stages", std::to_string(out.iguard_res.stages),
               std::to_string(out.iforest_res.stages)});
  res.print(std::cout, "Switch resources");

  const switchsim::TimingConfig timing;
  std::cout << "\npipeline latency: " << switchsim::pipeline_latency_ns(timing)
            << " ns per packet (" << timing.stages << " stages x " << timing.per_stage_ns
            << " ns)\n";

  // --- control-plane fault drill ------------------------------------------
  // Same deployment, degraded channel: 5 ms installs, 5 % digest loss, a
  // bounded channel, and a controller outage over a quarter of the replay.
  // The controller recovers by rebuilding blacklist rules from the
  // flow-label registers still resident in the data plane.
  const auto dep = lab.deploy_attack(atk);
  const switchsim::DeployedModel model = dep.iguard_model();
  const double end_ts = dep.test_trace.packets.back().ts;
  switchsim::PipelineConfig fault_cfg = cfg.pipe;
  fault_cfg.control.control_latency_s = 5e-3;
  fault_cfg.control.channel_capacity = 128;
  fault_cfg.control.faults.seed = cfg.seed;
  fault_cfg.control.faults.digest_loss_rate = 0.05;
  fault_cfg.control.faults.crashes = {{0.40 * end_ts, 0.25 * end_ts}};
  // Observability (DESIGN.md §4d): attach a registry and the pipeline
  // self-registers path counters, latency histograms, occupancy gauges, and
  // the control-plane backlog series — allocation-free per packet.
  obs::Registry metrics;
  fault_cfg.metrics = &metrics;
  switchsim::Pipeline degraded(fault_cfg, model);
  const auto fst = degraded.run(dep.test_trace);

  eval::Table faults({"control-plane event", "count"});
  faults.add_row({"digests sent", std::to_string(degraded.controller().digests_received())});
  faults.add_row({"injected digest drops", std::to_string(fst.faults.injected_digest_drops)});
  faults.add_row({"channel overflow drops", std::to_string(fst.faults.channel_overflow_drops)});
  faults.add_row({"channel backlog high-water", std::to_string(fst.faults.backlog_hwm)});
  faults.add_row({"install attempts", std::to_string(fst.faults.install_attempts)});
  faults.add_row({"install retries", std::to_string(fst.faults.install_retries)});
  faults.add_row({"dead-lettered installs", std::to_string(fst.faults.dead_letters)});
  faults.add_row({"controller restarts", std::to_string(fst.faults.crashes)});
  faults.add_row({"digests lost to crash", std::to_string(fst.faults.digests_lost_to_crash)});
  faults.add_row({"recovery installs (from registers)",
                  std::to_string(fst.faults.recovery_installs)});
  faults.add_row({"leaked packets (admitted post-classification)",
                  std::to_string(fst.faults.leaked_packets)});
  std::cout << "\n";
  faults.print(std::cout,
               "Degraded control plane (5ms installs, 5% loss, cap 128, 25% outage)");
  std::cout << "red-path drops under faults: " << fst.path(switchsim::Path::kRed) << " (vs "
            << st.path(switchsim::Path::kRed) << " lockstep)\n";

  // --- ingest chaos drill ---------------------------------------------------
  // Same replay, hostile input path (DESIGN.md §4g): serialize the test
  // trace to CSV, mangle it with seeded ingest faults (truncated and
  // corrupted records, duplicated and reordered batches, a burst window),
  // then shove it through the hardened reader and an overloaded shed queue
  // before it reaches the pipeline. Everything is seeded and event-clocked,
  // so the drill is bit-identical across runs and the conservation audit
  // must balance: offered == accepted + quarantined, then
  // accepted == admitted + shed.
  io::IngestReplayConfig icfg;
  icfg.reader.metrics = &metrics;  // ingest.* counters join the snapshot
  icfg.chaos.record_truncate_rate = 0.04;
  icfg.chaos.record_corrupt_rate = 0.04;
  icfg.chaos.batch_duplicate_rate = 0.10;
  icfg.chaos.batch_reorder_rate = 0.10;
  icfg.chaos.bursts = {{0.40 * end_ts, 0.10 * end_ts, 2.0}};
  icfg.overload.enabled = true;
  icfg.overload.queue_capacity = 256;
  icfg.overload.policy = io::ShedPolicy::kFlowHash;
  icfg.overload.flow_shed_fraction = 0.3;
  icfg.overload.drain_rate_pps =
      0.6 * static_cast<double>(dep.test_trace.size()) / end_ts;
  switchsim::ReplayConfig chaos_rc;
  chaos_rc.shards = 2;
  const auto drill = io::ingest_replay_sharded(dep.test_trace, icfg, fault_cfg, model, chaos_rc);
  if (const std::string err = io::audit_ingest_conservation(drill); !err.empty()) {
    std::cerr << "ingest conservation audit FAILED: " << err << "\n";
    return 1;
  }

  eval::Table drill_tbl({"ingest chaos drill", "count"});
  drill_tbl.add_row({"records offered", std::to_string(drill.ingest.offered)});
  drill_tbl.add_row({"accepted", std::to_string(drill.ingest.accepted)});
  drill_tbl.add_row({"quarantined", std::to_string(drill.ingest.quarantined)});
  drill_tbl.add_row({"timestamps clamped", std::to_string(drill.ingest.timestamps_clamped)});
  drill_tbl.add_row({"burst copies injected", std::to_string(drill.chaos.burst_copies)});
  drill_tbl.add_row({"batches duplicated", std::to_string(drill.chaos.batches_duplicated)});
  drill_tbl.add_row({"batches reordered", std::to_string(drill.chaos.batches_reordered)});
  drill_tbl.add_row({"shed by overload", std::to_string(drill.overload.shed)});
  drill_tbl.add_row({"queue high-water", std::to_string(drill.overload.queue_hwm)});
  drill_tbl.add_row({"admitted to pipeline", std::to_string(drill.overload.admitted)});
  drill_tbl.add_row({"replayed", std::to_string(drill.replay.stats.packets)});
  std::cout << "\n";
  drill_tbl.print(std::cout,
                  "Ingest chaos drill (mangled CSV, flow-hash shed, conservation-audited)");

  // Export the metrics snapshot (README "Dumping an observability
  // snapshot"): deterministic key order; "timing." keys are wall-clock and
  // the only ones that vary between runs.
  const obs::MetricsSnapshot snap = metrics.snapshot();
  std::ofstream("switch_deployment_obs.json") << obs::to_json(snap);
  std::ofstream("switch_deployment_obs.csv") << obs::to_csv(snap);
  std::cout << "\nwrote switch_deployment_obs.json / .csv (" << snap.scalars.size()
            << " scalar keys, " << snap.series.size() << " series)\n";
  return 0;
}
