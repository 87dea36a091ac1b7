// Fleet-scale deployment benchmark and robustness gate (DESIGN.md §4f):
// replays one deployment across simulated switch fleets of growing size
// under per-device failure domains, and enforces the fleet simulator's
// correctness contract. It exits non-zero when any gate fails:
//
//   1. N=1 equivalence     — one device with fleet faults off is
//      byte-identical to the single-switch sharded replay (full SimStats
//      equality plus obs non-"timing." key parity);
//   2. fleet determinism   — a faulty 4-device fleet is bit-identical at
//      worker thread counts 1 and 4 (stats, per-device control accounting,
//      fleet aggregates);
//   3. conservation        — in every sweep cell, every packet, digest,
//      and install op is accounted for exactly once
//      (audit_fleet_conservation).
//
// The sweep crosses fleet size x flow churn x fault profile and records
// install throughput, backlog high-water marks, dead letters, staleness,
// and leaked packets per cell into BENCH_fleet.json. Event-time rates are
// deterministic; wall-clock rates live under the top-level "timing" object,
// which scripts/check.sh --fleet-smoke strips before comparing two runs
// byte for byte. Also writes BENCH_fleet_obs.json (fleet.* counters,
// per-device gauges, backlog/devices-degraded series).
//
//   bench_fleet [--smoke] [--out <path>]
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ml/rng.hpp"
#include "obs/metrics.hpp"
#include "switchsim/fleet.hpp"

using namespace iguard;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Mixed trace with a tunable flow-churn profile: the same packet budget is
/// spent on few long flows (low churn: few rule installs, heavy dedup) or
/// many short ones (high churn: a fresh install intent per malicious flow).
traffic::Trace churn_trace(std::size_t flows, std::size_t packets_per_flow, ml::Rng& rng) {
  traffic::Trace t;
  for (std::size_t f = 0; f < flows; ++f) {
    const bool mal = f % 3 == 0;
    traffic::FiveTuple ft{0x0A000000u + static_cast<std::uint32_t>(f),
                          0x0B000000u + static_cast<std::uint32_t>(f % 13),
                          static_cast<std::uint16_t>(1024 + f % 40000), 443,
                          traffic::kProtoTcp};
    for (std::size_t i = 0; i < packets_per_flow; ++i) {
      traffic::Packet p;
      p.ts = 0.0008 * static_cast<double>(f) + 0.05 * static_cast<double>(i) +
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

switchsim::PipelineConfig pipe_cfg() {
  switchsim::PipelineConfig cfg;
  cfg.packet_threshold_n = 4;
  cfg.idle_timeout_delta = 10.0;
  return cfg;
}

struct Profile {
  const char* name;
  switchsim::FleetFaultConfig faults;
};

std::vector<Profile> fault_profiles() {
  switchsim::FleetFaultConfig clean;  // defaults: everything off

  switchsim::FleetFaultConfig faulty;
  faulty.digest_loss_rate = 0.05;
  faulty.install_failure_rate = 0.1;
  faulty.crash_rate = 0.15;
  faulty.crash_duration_s = 0.08;
  faulty.partition_rate = 0.1;
  faulty.partition_duration_s = 0.08;
  faulty.check_interval_s = 0.05;

  switchsim::FleetFaultConfig partition;  // dark-heavy: long link outages
  partition.partition_rate = 0.1;
  partition.partition_duration_s = 0.12;
  partition.check_interval_s = 0.05;

  return {{"clean", clean}, {"faulty", faulty}, {"partition", partition}};
}

switchsim::FleetControllerConfig sweep_control() {
  switchsim::FleetControllerConfig cc;
  cc.batch_size = 4;
  cc.install_latency_s = 0.002;
  cc.install_failure_rate = 0.05;
  cc.max_install_retries = 3;
  cc.retry_backoff_s = 0.002;
  cc.retry_backoff_cap_s = 0.01;
  cc.install_queue_capacity = 8;
  return cc;
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: bench_fleet [--smoke] [--out <path>]\n";
      return 2;
    }
  }

  // --- workload -------------------------------------------------------------
  ml::Rng rng(0xF17Eull);
  const std::size_t base_flows = smoke ? 90 : 450;
  struct Churn {
    const char* name;
    traffic::Trace trace;
  };
  std::vector<Churn> churns;
  churns.push_back({"low", churn_trace(base_flows, 12, rng)});
  churns.push_back({"high", churn_trace(base_flows * 3, 4, rng)});

  ml::Matrix fake(2, switchsim::kSwitchFlFeatures);
  for (std::size_t j = 0; j < switchsim::kSwitchFlFeatures; ++j) {
    fake(0, j) = 0.0;
    fake(1, j) = 1e6;
  }
  rules::Quantizer quant{16};
  quant.fit(fake);
  core::VoteWhitelist wl;
  wl.tree_count = 1;
  std::vector<rules::FieldRange> box(switchsim::kSwitchFlFeatures, {0, quant.domain_max()});
  box[5] = {0, quant.quantize_value(5, 600.0)};
  wl.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
  const switchsim::DeployedModel dm = core::build_bundle(1, std::move(wl), quant);

  const auto profiles = fault_profiles();
  const auto& parity_trace = churns[0].trace;

  // --- gate 1: N=1, faults off == single-switch sharded replay --------------
  bool n1_equivalent = true;
  {
    switchsim::ReplayConfig rc;
    rc.shards = 2;
    obs::Registry reg_sharded, reg_fleet;
    auto cfg = pipe_cfg();
    cfg.metrics = &reg_sharded;
    const auto sharded = switchsim::replay_sharded(parity_trace, cfg, dm, rc);
    cfg.metrics = &reg_fleet;
    switchsim::FleetConfig fc;
    fc.devices = 1;
    fc.replay = rc;
    const auto fleet = switchsim::replay_fleet(parity_trace, cfg, dm, fc);
    const std::string fleet_ns = cfg.metrics_prefix + ".fleet";
    const std::string_view base_drop[] = {"timing."};
    const std::string_view fleet_drop[] = {"timing.", fleet_ns};
    const auto a = obs::without_prefixes(reg_sharded.snapshot(), base_drop);
    const auto b = obs::without_prefixes(reg_fleet.snapshot(), fleet_drop);
    n1_equivalent = fleet.stats == sharded.stats && a.scalars == b.scalars &&
                    a.series == b.series && fleet.stats.packets == parity_trace.size();
  }

  // --- gate 2: faulty fleet bit-identical across worker thread counts -------
  bool fleet_deterministic = true;
  {
    switchsim::FleetConfig fc;
    fc.devices = 4;
    fc.replay.shards = 2;
    fc.faults = profiles[1].faults;
    fc.control = sweep_control();
    fc.num_threads = 1;
    fc.replay.num_threads = 1;
    const auto a = switchsim::replay_fleet(parity_trace, pipe_cfg(), dm, fc);
    fc.num_threads = 4;
    fc.replay.num_threads = 4;
    const auto b = switchsim::replay_fleet(parity_trace, pipe_cfg(), dm, fc);
    fleet_deterministic = a.stats == b.stats && a.fleet == b.fleet &&
                          a.device_control == b.device_control;
  }

  // --- gate 3 + sweep: fleet size x churn x fault profile -------------------
  bool conserved = true;
  const std::vector<std::size_t> fleet_sizes =
      smoke ? std::vector<std::size_t>{1, 2, 4} : std::vector<std::size_t>{1, 2, 4, 8};
  std::ostringstream cells, timing;
  bool first_cell = true;
  const auto t_sweep0 = std::chrono::steady_clock::now();
  for (const auto& churn : churns) {
    const double span_s =
        churn.trace.empty() ? 1.0 : churn.trace.packets.back().ts - churn.trace.packets[0].ts;
    for (const auto& prof : profiles) {
      for (const std::size_t devices : fleet_sizes) {
        switchsim::FleetConfig fc;
        fc.devices = devices;
        fc.replay.shards = 2;
        fc.faults = prof.faults;
        fc.control = sweep_control();
        const auto t0 = std::chrono::steady_clock::now();
        const auto out = switchsim::replay_fleet(churn.trace, pipe_cfg(), dm, fc);
        const double wall_s = seconds_since(t0);
        const std::string err = switchsim::audit_fleet_conservation(out, churn.trace.size());
        if (!err.empty()) {
          conserved = false;
          std::cerr << "CONSERVATION VIOLATION (churn=" << churn.name
                    << " profile=" << prof.name << " devices=" << devices << "): " << err
                    << "\n";
        }
        const auto& fl = out.fleet;
        std::size_t catchups = 0, backpressure = 0, queue_hwm = 0;
        for (const auto& dc : out.device_control) {
          catchups += dc.catchup_installs;
          backpressure += dc.backpressure_drops;
          queue_hwm = std::max(queue_hwm, dc.queue_hwm);
        }
        const char* sep = first_cell ? "\n" : ",\n";
        first_cell = false;
        cells << sep << "    {\"churn\": \"" << churn.name << "\", \"profile\": \""
              << prof.name << "\", \"devices\": " << devices
              << ", \"packets\": " << out.stats.packets
              << ", \"digests\": " << fl.digests_observed
              << ", \"digests_lost_dark\": " << fl.digests_lost_dark
              << ", \"install_intents\": " << fl.install_intents
              << ", \"dedup_suppressed\": " << fl.dedup_suppressed
              << ", \"installs_applied\": " << fl.installs_applied
              << ", \"installs_per_trace_sec\": "
              << static_cast<double>(fl.installs_applied) / span_s
              << ", \"dead_letters\": " << fl.dead_letters
              << ", \"backpressure_drops\": " << backpressure
              << ", \"catchup_installs\": " << catchups
              << ", \"backlog_hwm\": " << fl.backlog_hwm
              << ", \"device_queue_hwm\": " << queue_hwm
              << ", \"devices_degraded_hwm\": " << fl.devices_degraded_hwm
              << ", \"staleness_hwm_s\": " << fl.staleness_hwm_s
              << ", \"leaked_packets\": " << out.stats.faults.leaked_packets << "}";
        timing << sep << "    {\"churn\": \"" << churn.name << "\", \"profile\": \""
               << prof.name << "\", \"devices\": " << devices << ", \"wall_s\": " << wall_s
               << ", \"installs_per_wall_sec\": "
               << (wall_s > 0.0 ? static_cast<double>(fl.installs_applied) / wall_s : 0.0)
               << "}";
      }
    }
  }
  const double sweep_wall_s = seconds_since(t_sweep0);

  // --- observability artifact -----------------------------------------------
  // One instrumented faulty 2-device fleet; fleet.* aggregates, per-device
  // gauges, and the backlog / devices-degraded series land next to the
  // per-device pipeline metrics. check.sh --fleet-smoke asserts non-"timing."
  // keys are byte-identical across two runs.
  {
    obs::Registry reg;
    auto ocfg = pipe_cfg();
    ocfg.metrics = &reg;
    switchsim::FleetConfig fc;
    fc.devices = 2;
    fc.replay.shards = 2;
    fc.faults = profiles[1].faults;
    fc.control = sweep_control();
    (void)switchsim::replay_fleet(parity_trace, ocfg, dm, fc);
    reg.gauge("host.hardware_threads")
        .set(static_cast<double>(std::thread::hardware_concurrency()));
    std::ofstream of("BENCH_fleet_obs.json");
    of << obs::to_json(reg.snapshot());
  }

  // --- report ---------------------------------------------------------------
  std::ostringstream js;
  js << "{\n"
     << "  \"smoke\": " << json_bool(smoke) << ",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
     << "  \"low_churn_packets\": " << churns[0].trace.size() << ",\n"
     << "  \"high_churn_packets\": " << churns[1].trace.size() << ",\n"
     << "  \"n1_equivalent\": " << json_bool(n1_equivalent) << ",\n"
     << "  \"fleet_deterministic\": " << json_bool(fleet_deterministic) << ",\n"
     << "  \"conserved\": " << json_bool(conserved) << ",\n"
     << "  \"cells\": [" << cells.str() << "\n  ],\n"
     << "  \"timing\": {\n    \"sweep_wall_s\": " << sweep_wall_s << ",\n    \"cells\": ["
     << timing.str() << "\n  ]}\n"
     << "}\n";

  std::ofstream f(out_path);
  f << js.str();
  f.close();
  std::cout << js.str();

  if (!n1_equivalent) {
    std::cerr << "FAIL: N=1 faults-off fleet diverges from single-switch sharded replay\n";
    return 1;
  }
  if (!fleet_deterministic) {
    std::cerr << "FAIL: faulty fleet is not bit-identical across worker thread counts\n";
    return 1;
  }
  if (!conserved) {
    std::cerr << "FAIL: fleet conservation audit failed in at least one sweep cell\n";
    return 1;
  }
  return 0;
}
