// Control-plane fault resilience (extends the App. B.2 story told by
// bench_b2_control_plane): how much per-packet detection does iGuard lose
// when the digest channel is slow, lossy, undersized, or the controller
// crashes outright? One deployment is trained once, then replayed through
// the pipeline under a sweep of control-plane configurations — install
// latency 0-100 ms, digest loss 0-20 %, bounded channel capacities, and
// controller outages — under both blacklist eviction policies. Everything
// is seeded: the same build produces a bit-identical fault_resilience.csv.
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "harness/testbed_lab.hpp"
#include "obs/metrics.hpp"

using namespace iguard;

namespace {

struct Scenario {
  std::string label;
  double latency_s = 0.0;
  double loss_rate = 0.0;
  std::size_t channel_capacity = 0;  // 0 = unbounded
  double crash_start_s = 0.0;
  double crash_duration_s = 0.0;
  std::size_t flow_slots = 0;  // 0 = deployment default
};

double packet_recall(const switchsim::SimStats& st) {
  std::size_t tp = 0, fn = 0;
  for (std::size_t i = 0; i < st.truth.size(); ++i) {
    if (st.truth[i] != 1) continue;
    if (st.pred[i] == 1)
      ++tp;
    else
      ++fn;
  }
  return tp + fn == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fn);
}

}  // namespace

int main() {
  harness::TestbedLabConfig lab_cfg;
  harness::TestbedLab lab{lab_cfg};
  const auto atk = traffic::AttackType::kMirai;
  std::cout << "training one deployment (" << traffic::attack_name(atk)
            << "), then replaying it under degraded control planes...\n\n";
  const harness::Deployment dep = lab.deploy_attack(atk);
  const double trace_end = dep.test_trace.empty() ? 0.0 : dep.test_trace.packets.back().ts;

  std::vector<Scenario> scenarios;
  scenarios.push_back({"baseline (lockstep-equivalent)"});
  for (const double ms : {1.0, 10.0, 50.0, 100.0})
    scenarios.push_back({"latency " + eval::Table::num(ms, 0) + " ms", ms * 1e-3});
  for (const double loss : {0.05, 0.10, 0.20})
    scenarios.push_back(
        {"digest loss " + eval::Table::num(loss * 100.0, 0) + " %", 1e-3, loss});
  for (const std::size_t cap : {256u, 64u, 16u})
    scenarios.push_back({"channel cap " + std::to_string(cap), 1e-3, 0.0, cap});
  // Outages centred mid-trace, growing to a quarter of the replay.
  for (const double frac : {0.05, 0.25})
    scenarios.push_back({"crash " + eval::Table::num(frac * 100.0, 0) + "% of trace", 1e-3,
                         0.0, 0, 0.4 * trace_end, frac * trace_end});
  scenarios.push_back({"compound (10ms, 10% loss, cap 64, crash)", 10e-3, 0.10, 64,
                       0.4 * trace_end, 0.05 * trace_end});
  // With the default register budget every classified flow keeps its label
  // resident, so the purple path masks lost installs. Shrinking the flow
  // tables forces evictions: once a flow's registers are reclaimed, the
  // blacklist is the only memory of the verdict and control-plane faults
  // become visible as leaked packets / lost recall.
  scenarios.push_back({"tight registers (512 slots)", 1e-3, 0.0, 0, 0.0, 0.0, 512});
  scenarios.push_back({"tight registers (64 slots)", 1e-3, 0.0, 0, 0.0, 0.0, 64});
  scenarios.push_back({"tight registers (64) + 20% loss", 1e-3, 0.20, 0, 0.0, 0.0, 64});

  eval::Table t({"scenario", "policy", "latency_ms", "loss_pct", "channel_cap", "crash_s",
                 "recall", "macro_f1", "leaked_frac", "red_path", "installs", "chan_drops",
                 "inj_drops", "backlog_hwm", "dead_letters", "recovery_installs"});
  // Per-stage observability breakdown (DESIGN.md §4d) for the compound
  // scenario under each eviction policy: path counters, occupancy gauges,
  // install latency histogram and the sampled backlog series. Written as a
  // separate artifact with "timing." keys stripped, so it is bit-identical
  // run to run like the CSV.
  obs::Registry obs_reg;
  const switchsim::DeployedModel model = dep.iguard_model();
  for (const auto policy : {switchsim::EvictionPolicy::kFifo, switchsim::EvictionPolicy::kLru}) {
    const std::string pname = policy == switchsim::EvictionPolicy::kFifo ? "fifo" : "lru";
    for (const auto& sc : scenarios) {
      switchsim::PipelineConfig pipe_cfg = lab.config().pipe;
      pipe_cfg.eviction = policy;
      if (sc.flow_slots != 0) pipe_cfg.flow_slots = sc.flow_slots;
      pipe_cfg.control.control_latency_s = sc.latency_s;
      pipe_cfg.control.channel_capacity = sc.channel_capacity;
      pipe_cfg.control.faults.seed = lab.config().seed;
      pipe_cfg.control.faults.digest_loss_rate = sc.loss_rate;
      if (sc.crash_duration_s > 0.0)
        pipe_cfg.control.faults.crashes = {{sc.crash_start_s, sc.crash_duration_s}};
      if (sc.label.rfind("compound", 0) == 0) {
        pipe_cfg.metrics = &obs_reg;
        pipe_cfg.metrics_prefix = "pipeline." + pname;
      }

      switchsim::Pipeline pipe(pipe_cfg, model);
      const auto st = pipe.run(dep.test_trace);
      std::vector<int> truth(st.truth.begin(), st.truth.end());
      std::vector<int> pred(st.pred.begin(), st.pred.end());
      std::vector<double> score(st.pred.begin(), st.pred.end());
      const auto m = eval::evaluate(truth, pred, score);
      const double leaked_frac =
          st.packets == 0 ? 0.0
                          : static_cast<double>(st.faults.leaked_packets) /
                                static_cast<double>(st.packets);
      t.add_row({sc.label, pname, eval::Table::num(sc.latency_s * 1e3, 1),
                 eval::Table::num(sc.loss_rate * 100.0, 1),
                 std::to_string(sc.channel_capacity), eval::Table::num(sc.crash_duration_s, 2),
                 eval::Table::num(packet_recall(st), 4), eval::Table::num(m.macro_f1, 4),
                 eval::Table::num(leaked_frac, 6),
                 std::to_string(st.path(switchsim::Path::kRed)),
                 std::to_string(pipe.controller().rules_installed()),
                 std::to_string(st.faults.channel_overflow_drops),
                 std::to_string(st.faults.injected_digest_drops),
                 std::to_string(st.faults.backlog_hwm), std::to_string(st.faults.dead_letters),
                 std::to_string(st.faults.recovery_installs)});
    }
  }
  t.print(std::cout, "Control-plane fault resilience (one deployment, degraded replays)");
  t.write_csv("fault_resilience.csv");

  obs_reg.gauge("host.hardware_threads")
      .set(static_cast<double>(std::thread::hardware_concurrency()));
  obs::MetricsSnapshot snap = obs_reg.snapshot();
  for (auto it = snap.scalars.begin(); it != snap.scalars.end();) {
    it = it->first.rfind("timing.", 0) == 0 ? snap.scalars.erase(it) : std::next(it);
  }
  std::ofstream of("fault_resilience_obs.json");
  of << obs::to_json(snap);

  std::cout << "\nwrote fault_resilience.csv (" << t.rows()
            << " scenarios) and fault_resilience_obs.json\n";
  return 0;
}
