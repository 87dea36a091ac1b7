// Hardened-ingest benchmark and robustness gate (DESIGN.md §4g): drives the
// full ingest chain — chaos mangler -> TraceReader -> overload gate ->
// sharded replay — across a chaos x shed-policy x shard-count sweep, and
// exits non-zero when any gate fails:
//
//   1. pass-through parity — hardening on with chaos and overload off is
//      byte-identical to the plain sharded replay (full SimStats equality
//      plus obs non-"timing." key parity), both for the in-memory trace and
//      for its CSV round trip through the untrusted-bytes entry;
//   2. determinism        — every sweep cell is bit-identical between
//      replay worker thread counts 1 and 4 (replay stats, ingest, chaos,
//      and overload accounting);
//   3. conservation       — in every cell, every offered record is
//      accounted for exactly once: accepted-and-replayed, shed, or
//      quarantined (audit_ingest_conservation);
//   4. ring transparency  — pumping the trace through the SPSC ring
//      preserves content and order exactly (pushed == popped).
//
// Per-cell accounting lands in BENCH_ingest.json; wall-clock throughput
// under the top-level "timing" object, which scripts/check.sh
// --ingest-smoke strips before comparing two runs byte for byte. Also
// writes BENCH_ingest_obs.json (ingest.* counters next to the replay's
// pipeline metrics).
//
//   bench_ingest [--smoke] [--out <path>]
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/replay.hpp"
#include "ml/rng.hpp"
#include "obs/metrics.hpp"

using namespace iguard;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Mixed benign/malicious workload (bench_fleet's churn shape): enough
/// distinct flows that flow-hash shedding bites, enough rate that a finite
/// drain saturates.
traffic::Trace make_trace(std::size_t flows, std::size_t packets_per_flow, ml::Rng& rng) {
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

struct ChaosProfile {
  const char* name;
  switchsim::FaultConfig faults;
};

std::vector<ChaosProfile> chaos_profiles() {
  switchsim::FaultConfig off;  // defaults: everything off

  switchsim::FaultConfig mangled;
  mangled.record_truncate_rate = 0.05;
  mangled.record_corrupt_rate = 0.05;
  mangled.batch_duplicate_rate = 0.10;
  mangled.batch_reorder_rate = 0.10;

  switchsim::FaultConfig burst = mangled;
  burst.record_truncate_rate = 0.02;
  burst.record_corrupt_rate = 0.02;
  burst.bursts.push_back({0.05, 0.25, 3.0});
  burst.bursts.push_back({0.40, 0.10, 2.0});

  return {{"off", off}, {"mangled", mangled}, {"burst", burst}};
}

struct ShedProfile {
  const char* name;
  io::OverloadConfig overload;
};

std::vector<ShedProfile> shed_profiles(double offered_pps) {
  io::OverloadConfig off;  // disabled: pass-through

  io::OverloadConfig newest;
  newest.enabled = true;
  newest.queue_capacity = 64;
  newest.drain_rate_pps = offered_pps * 0.4;  // force saturation
  newest.policy = io::ShedPolicy::kDropNewest;

  io::OverloadConfig oldest = newest;
  oldest.policy = io::ShedPolicy::kDropOldest;

  io::OverloadConfig flow = newest;
  flow.policy = io::ShedPolicy::kFlowHash;
  flow.flow_shed_fraction = 0.5;

  return {{"off", off}, {"drop_newest", newest}, {"drop_oldest", oldest}, {"flow_hash", flow}};
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: bench_ingest [--smoke] [--out <path>]\n";
      return 2;
    }
  }

  // --- workload -------------------------------------------------------------
  ml::Rng rng(0x1A9E57ull);
  const std::size_t flows = smoke ? 90 : 360;
  const traffic::Trace trace = make_trace(flows, 8, rng);
  const double span_s = trace.packets.back().ts - trace.packets.front().ts;
  const double offered_pps = static_cast<double>(trace.size()) / span_s;

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

  // --- gate 1: hardening on, chaos/overload off == plain replay -------------
  bool passthrough_parity = true;
  {
    switchsim::ReplayConfig rc;
    rc.shards = 2;
    obs::Registry reg_plain, reg_hard;
    auto cfg = pipe_cfg();
    cfg.metrics = &reg_plain;
    const auto plain = switchsim::replay_sharded(trace, cfg, dm, rc);

    cfg.metrics = &reg_hard;
    io::IngestReplayConfig icfg;
    icfg.reader.metrics = &reg_hard;
    const auto hard = io::ingest_replay_sharded(trace, icfg, cfg, dm, rc);

    const std::string_view plain_drop[] = {"timing."};
    const std::string_view hard_drop[] = {"timing.", "ingest."};
    const auto a = obs::without_prefixes(reg_plain.snapshot(), plain_drop);
    const auto b = obs::without_prefixes(reg_hard.snapshot(), hard_drop);
    passthrough_parity = hard.replay.stats == plain.stats && a.scalars == b.scalars &&
                         a.series == b.series && hard.ingest.quarantined == 0 &&
                         hard.ingest.timestamps_clamped == 0 &&
                         hard.ingest.accepted == trace.size();

    // The untrusted-bytes entry over the CSV round trip must land on the
    // exact same replay (%.17g timestamps make the round trip bit-exact).
    io::IngestReplayConfig bcfg;
    const auto bytes = io::ingest_replay_sharded(io::trace_to_csv(trace), bcfg,
                                                 pipe_cfg(), dm, rc);
    passthrough_parity = passthrough_parity && bytes.replay.stats == plain.stats &&
                         bytes.ingest.quarantined == 0;
  }

  // --- gate 4: SPSC ring preserves content and order ------------------------
  bool ring_transparent = true;
  {
    io::RingPumpStats rp;
    const traffic::Trace pumped = io::pump_through_ring(trace, 64, rp);
    ring_transparent = rp.pushed == rp.popped && rp.pushed == trace.size() &&
                       io::trace_to_csv(pumped) == io::trace_to_csv(trace);
  }

  // --- gates 2+3 + sweep: chaos x shed policy x shards ----------------------
  bool deterministic = true;
  bool conserved = true;
  const auto chaos = chaos_profiles();
  const auto sheds = shed_profiles(offered_pps);
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, 2, 4} : std::vector<std::size_t>{1, 2, 4, 8};
  std::ostringstream cells, timing;
  bool first_cell = true;
  const auto t_sweep0 = std::chrono::steady_clock::now();
  for (const auto& cp : chaos) {
    for (const auto& sp : sheds) {
      for (const std::size_t shards : shard_counts) {
        io::IngestReplayConfig icfg;
        icfg.chaos = cp.faults;
        icfg.overload = sp.overload;
        icfg.chaos_batch_records = 32;
        switchsim::ReplayConfig rc;
        rc.shards = shards;
        rc.num_threads = 1;
        const auto t0 = std::chrono::steady_clock::now();
        const auto a = io::ingest_replay_sharded(trace, icfg, pipe_cfg(), dm, rc);
        const double wall_s = seconds_since(t0);
        rc.num_threads = 4;
        const auto b = io::ingest_replay_sharded(trace, icfg, pipe_cfg(), dm, rc);

        if (!(a.replay.stats == b.replay.stats && a.ingest == b.ingest &&
              a.overload == b.overload && a.chaos == b.chaos)) {
          deterministic = false;
          std::cerr << "DETERMINISM VIOLATION (chaos=" << cp.name << " shed=" << sp.name
                    << " shards=" << shards << ")\n";
        }
        const std::string err = io::audit_ingest_conservation(a);
        if (!err.empty()) {
          conserved = false;
          std::cerr << "CONSERVATION VIOLATION (chaos=" << cp.name << " shed=" << sp.name
                    << " shards=" << shards << "): " << err << "\n";
        }

        const char* sep = first_cell ? "\n" : ",\n";
        first_cell = false;
        cells << sep << "    {\"chaos\": \"" << cp.name << "\", \"policy\": \"" << sp.name
              << "\", \"shards\": " << shards << ", \"offered\": " << a.ingest.offered
              << ", \"accepted\": " << a.ingest.accepted
              << ", \"quarantined\": " << a.ingest.quarantined
              << ", \"timestamps_clamped\": " << a.ingest.timestamps_clamped
              << ", \"truncated\": "
              << a.ingest.by_category[static_cast<std::size_t>(
                     io::IngestErrorCategory::kTruncated)]
              << ", \"bad_field\": "
              << a.ingest.by_category[static_cast<std::size_t>(
                     io::IngestErrorCategory::kBadField)]
              << ", \"range_violation\": "
              << a.ingest.by_category[static_cast<std::size_t>(
                     io::IngestErrorCategory::kRangeViolation)]
              << ", \"unsupported\": "
              << a.ingest.by_category[static_cast<std::size_t>(
                     io::IngestErrorCategory::kUnsupported)]
              << ", \"shed\": " << a.overload.shed
              << ", \"shed_newest\": " << a.overload.shed_newest
              << ", \"shed_oldest\": " << a.overload.shed_oldest
              << ", \"shed_flow_hash\": " << a.overload.shed_flow_hash
              << ", \"queue_hwm\": " << a.overload.queue_hwm
              << ", \"admitted\": " << a.overload.admitted
              << ", \"replayed\": " << a.replay.stats.packets
              << ", \"burst_copies\": " << a.chaos.burst_copies
              << ", \"batches_duplicated\": " << a.chaos.batches_duplicated
              << ", \"batches_reordered\": " << a.chaos.batches_reordered << "}";
        timing << sep << "    {\"chaos\": \"" << cp.name << "\", \"policy\": \"" << sp.name
               << "\", \"shards\": " << shards << ", \"wall_s\": " << wall_s
               << ", \"packets_per_wall_sec\": "
               << (wall_s > 0.0 ? static_cast<double>(a.ingest.offered) / wall_s : 0.0)
               << "}";
      }
    }
  }
  const double sweep_wall_s = seconds_since(t_sweep0);

  // --- observability artifact -----------------------------------------------
  // One instrumented chaos+overload run: ingest.* counters land next to the
  // replay's pipeline metrics. check.sh --ingest-smoke asserts non-"timing."
  // keys are byte-identical across two runs.
  {
    obs::Registry reg;
    auto ocfg = pipe_cfg();
    ocfg.metrics = &reg;
    io::IngestReplayConfig icfg;
    icfg.chaos = chaos[1].faults;
    icfg.overload = sheds[3].overload;
    icfg.reader.metrics = &reg;
    switchsim::ReplayConfig rc;
    rc.shards = 2;
    (void)io::ingest_replay_sharded(trace, icfg, ocfg, dm, rc);
    reg.gauge("host.hardware_threads")
        .set(static_cast<double>(std::thread::hardware_concurrency()));
    std::ofstream of("BENCH_ingest_obs.json");
    of << obs::to_json(reg.snapshot());
  }

  // --- report ---------------------------------------------------------------
  std::ostringstream js;
  js << "{\n"
     << "  \"smoke\": " << json_bool(smoke) << ",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
     << "  \"trace_packets\": " << trace.size() << ",\n"
     << "  \"offered_pps\": " << offered_pps << ",\n"
     << "  \"passthrough_parity\": " << json_bool(passthrough_parity) << ",\n"
     << "  \"ring_transparent\": " << json_bool(ring_transparent) << ",\n"
     << "  \"deterministic\": " << json_bool(deterministic) << ",\n"
     << "  \"conserved\": " << json_bool(conserved) << ",\n"
     << "  \"cells\": [" << cells.str() << "\n  ],\n"
     << "  \"timing\": {\n    \"sweep_wall_s\": " << sweep_wall_s << ",\n    \"cells\": ["
     << timing.str() << "\n  ]}\n"
     << "}\n";

  std::ofstream f(out_path);
  f << js.str();
  f.close();
  std::cout << js.str();

  if (!passthrough_parity) {
    std::cerr << "FAIL: hardened pass-through diverges from plain sharded replay\n";
    return 1;
  }
  if (!ring_transparent) {
    std::cerr << "FAIL: SPSC ring pump altered the packet stream\n";
    return 1;
  }
  if (!deterministic) {
    std::cerr << "FAIL: ingest chain not bit-identical across thread counts\n";
    return 1;
  }
  if (!conserved) {
    std::cerr << "FAIL: ingest conservation audit failed in at least one cell\n";
    return 1;
  }
  return 0;
}
