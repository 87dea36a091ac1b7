// Model-swap benchmark and drift gate for the hitless swap loop
// (DESIGN.md §4e): replays a benign-drift workload through the pipeline
// with the swap loop off and on, measures the per-packet cost of the
// versioned read path, and enforces the swap subsystem's correctness
// contract. It exits non-zero when any gate fails:
//
//   1. swap determinism  — swap-enabled sharded replay is bit-identical
//      across thread counts at 1/2/4/8 shards;
//   2. hitless no-op     — with the loop live but no trigger armed, every
//      data-plane observable matches a swap-disabled run byte for byte;
//   3. zero packet loss  — path counts and the confusion matrix both sum
//      to the packet count in every configuration, and every emitted
//      mirror is delivered or counted lost;
//   4. drift fires       — the drifting workload performs >= 1 publish
//      and retires every superseded version;
//   5. zero steady-state allocations with the loop pinned per packet.
//
//   bench_model_swap [--smoke] [--out <path>]
//
// --smoke shrinks the trace so the ctest gate stays fast under sanitizers.
// Also writes BENCH_model_swap_obs.json (swap.* counters/series) for the
// check.sh --swap-smoke byte-determinism comparison.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/alloc_counter.hpp"
#include "ml/rng.hpp"
#include "obs/metrics.hpp"
#include "switchsim/flow_state.hpp"
#include "switchsim/replay.hpp"

using namespace iguard;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Three-table vote whitelist over min packet size (feature 5): two broad
/// tables admit up to ~900 B, one narrow table only up to ~300 B. Drifted
/// benign traffic (~700 B) stays majority-benign but misses the narrow
/// table on every mirror — the sustained-miss regime the detector fires on.
core::VoteWhitelist swap_whitelist(const rules::Quantizer& q) {
  core::VoteWhitelist wl;
  wl.tree_count = 3;
  for (double cap : {900.0, 900.0, 300.0}) {
    std::vector<rules::FieldRange> box(switchsim::kSwitchFlFeatures, {0, q.domain_max()});
    box[5] = {0, q.quantize_value(5, cap)};
    wl.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
  }
  return wl;
}

/// Benign traffic whose packet size migrates mid-trace (small -> ~700 B),
/// with malicious large-packet flows mixed in throughout.
traffic::Trace drift_trace(std::size_t flows, std::size_t packets_per_flow, ml::Rng& rng) {
  traffic::Trace t;
  for (std::size_t f = 0; f < flows; ++f) {
    const bool mal = f % 5 == 0;
    const bool drifted = f >= flows / 2;
    traffic::FiveTuple ft{0x0A000000u + static_cast<std::uint32_t>(f),
                          0x0B000000u + static_cast<std::uint32_t>(f % 7),
                          static_cast<std::uint16_t>(1024 + f), 443, traffic::kProtoTcp};
    for (std::size_t i = 0; i < packets_per_flow; ++i) {
      traffic::Packet p;
      p.ts = 0.001 * static_cast<double>(f) + 0.05 * static_cast<double>(i) +
             rng.uniform(0.0, 0.0005);
      p.ft = i % 2 == 0 ? ft : ft.reversed();
      if (mal) {
        p.length = static_cast<std::uint16_t>(1200 + rng.index(200));
      } else if (drifted) {
        p.length = static_cast<std::uint16_t>(650 + rng.index(100));
      } else {
        p.length = static_cast<std::uint16_t>(80 + rng.index(60));
      }
      p.malicious = mal;
      t.packets.push_back(p);
    }
  }
  t.sort_by_time();
  return t;
}

switchsim::PipelineConfig pipe_cfg(bool enable_swap, bool enable_drift) {
  switchsim::PipelineConfig cfg;
  cfg.packet_threshold_n = 4;
  cfg.idle_timeout_delta = 10.0;
  cfg.swap.enabled = enable_swap;
  cfg.swap.drift.enabled = enable_drift;
  cfg.swap.drift.window = 16;
  cfg.swap.drift.baseline_windows = 1;
  cfg.swap.drift.miss_rate_margin = 0.10;
  // A ~400 B size jump is ~25 quantised levels: out of per-field reach, so
  // the updater cannot absorb the drift and the miss rate must fire.
  cfg.swap.update.max_extension_per_field = 8;
  cfg.swap.publish_after_extensions = 0;  // drift is the only trigger
  cfg.swap.recent_capacity = 512;
  return cfg;
}

bool equal_observables(const switchsim::SimStats& a, const switchsim::SimStats& b) {
  return a.pred == b.pred && a.truth == b.truth && a.path_count == b.path_count &&
         a.tp == b.tp && a.fp == b.fp && a.tn == b.tn && a.fn == b.fn &&
         a.green_mirrors == b.green_mirrors &&
         a.benign_feature_mirrors == b.benign_feature_mirrors &&
         a.faults.leaked_packets == b.faults.leaked_packets;
}

bool conserved(const switchsim::SimStats& st, std::size_t expect_packets) {
  std::size_t paths = 0;
  for (const auto c : st.path_count) paths += c;
  return st.packets == expect_packets && paths == st.packets &&
         st.tp + st.fp + st.tn + st.fn == st.packets;
}

struct TimedRun {
  double packets_per_sec = 0.0;
  double ns_per_packet = 0.0;
};

TimedRun measure(const traffic::Trace& trace, const switchsim::PipelineConfig& cfg,
                 const switchsim::DeployedModel& dm, std::size_t reps) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t packets = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    switchsim::Pipeline pipe(cfg, dm);
    packets += pipe.run(trace).packets;
  }
  const double elapsed = seconds_since(t0);
  TimedRun r;
  r.packets_per_sec = static_cast<double>(packets) / elapsed;
  r.ns_per_packet = elapsed * 1e9 / static_cast<double>(packets);
  return r;
}

/// Steady-state allocation probe with the swap loop live: one long-lived
/// classified flow, the handle pinned on every packet. Must be exactly 0.
std::size_t steady_state_allocs(const switchsim::DeployedModel& dm) {
  auto cfg = pipe_cfg(true, false);
  cfg.swap.recent_capacity = 16;
  cfg.idle_timeout_delta = 1e6;
  cfg.record_labels = false;  // the one sanctioned steady-state allocator
  switchsim::Pipeline pipe(cfg, dm);
  switchsim::SimStats st;
  traffic::Packet p;
  p.ft = {0x0A000001u, 0x0A000002u, 4242, 443, traffic::kProtoTcp};
  p.length = 120;
  double ts = 0.0;
  for (int i = 0; i < 8; ++i) {
    p.ts = (ts += 0.001);
    pipe.process(p, st);
  }
  const std::size_t before = harness::alloc_count();
  for (int i = 0; i < 20000; ++i) {
    p.ts = (ts += 0.0001);
    pipe.process(p, st);
  }
  return harness::alloc_count() - before;
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_model_swap.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: bench_model_swap [--smoke] [--out <path>]\n";
      return 2;
    }
  }

  // --- workload -------------------------------------------------------------
  ml::Rng rng(0x5A4Bull);
  const std::size_t flows = smoke ? 200 : 1200;
  const auto trace = drift_trace(flows, 8, rng);

  ml::Matrix fake(2, switchsim::kSwitchFlFeatures);
  for (std::size_t j = 0; j < switchsim::kSwitchFlFeatures; ++j) {
    fake(0, j) = 0.0;
    fake(1, j) = 1e6;
  }
  rules::Quantizer quant{16};
  quant.fit(fake);
  const switchsim::DeployedModel dm = core::build_bundle(1, swap_whitelist(quant), quant);

  // --- gate 1: swap determinism across shard and thread counts --------------
  bool swap_deterministic = true;
  const auto swap_cfg = pipe_cfg(true, true);
  switchsim::ShardedReplayResult drift_run;  // the K=1 run, reported below
  for (const std::size_t k : smoke ? std::vector<std::size_t>{1, 2}
                                   : std::vector<std::size_t>{1, 2, 4, 8}) {
    switchsim::ReplayConfig rc;
    rc.shards = k;
    rc.num_threads = 1;
    auto a = switchsim::replay_sharded(trace, swap_cfg, dm, rc);
    rc.num_threads = k;
    const auto b = switchsim::replay_sharded(trace, swap_cfg, dm, rc);
    swap_deterministic = swap_deterministic && equal_observables(a.stats, b.stats) &&
                         a.stats.swap.publishes == b.stats.swap.publishes &&
                         a.stats.swap.drift_fires == b.stats.swap.drift_fires &&
                         a.stats.swap.mirrors_applied == b.stats.swap.mirrors_applied &&
                         a.stats.swap.final_version == b.stats.swap.final_version &&
                         conserved(a.stats, trace.size());
    if (k == 1) drift_run = std::move(a);
  }

  // --- gate 2: hitless no-op equivalence ------------------------------------
  // Loop live but never triggered: mirrors flow, staging learns, nothing
  // publishes — the data plane must be byte-identical to swap-disabled.
  switchsim::Pipeline armed(pipe_cfg(true, false), dm);
  switchsim::Pipeline plain(pipe_cfg(false, false), dm);
  const auto st_armed = armed.run(trace);
  const auto st_plain = plain.run(trace);
  const bool hitless = equal_observables(st_armed, st_plain) &&
                       st_armed.swap.publishes == 0 && st_armed.swap.final_version == 1 &&
                       st_armed.swap.mirrors_applied == st_armed.faults.mirrors_delivered;

  // --- gate 3: packet + mirror conservation in the drifting run -------------
  bool no_loss = conserved(drift_run.stats, trace.size());
  for (const auto& s : drift_run.per_shard) {
    no_loss = no_loss &&
              s.faults.mirrors_delivered + s.faults.mirrors_lost == s.benign_feature_mirrors &&
              s.swap.mirrors_applied == s.faults.mirrors_delivered &&
              s.swap.bundles_retired == s.swap.publishes &&
              s.swap.final_version == 1 + s.swap.publishes;
  }

  // --- gate 4: the drifting workload actually swaps -------------------------
  const bool swapped = drift_run.stats.swap.publishes >= 1 &&
                       drift_run.stats.swap.drift_fires >= 1 &&
                       drift_run.stats.swap.final_version > 1;

  // --- gate 5: zero-allocation steady state (skipped under sanitizers) ------
  const std::size_t steady_allocs =
      harness::alloc_counting_active() ? steady_state_allocs(dm) : 0;

  // --- timing: versioned read path vs fixed engine --------------------------
  const std::size_t reps = smoke ? 1 : 3;
  const auto t_off = measure(trace, pipe_cfg(false, false), dm, reps);
  const auto t_on = measure(trace, pipe_cfg(true, true), dm, reps);
  const double overhead_ns = t_on.ns_per_packet - t_off.ns_per_packet;

  // --- observability artifact -----------------------------------------------
  // One instrumented 2-shard replay; swap.* counters and the miss-rate
  // series land next to the §4d pipeline metrics. Non-"timing." keys are
  // byte-deterministic (check.sh --swap-smoke asserts so).
  {
    obs::Registry reg;
    auto ocfg = pipe_cfg(true, true);
    ocfg.metrics = &reg;
    switchsim::ReplayConfig rc;
    rc.shards = 2;
    (void)switchsim::replay_sharded(trace, ocfg, dm, rc);
    reg.gauge("host.hardware_threads")
        .set(static_cast<double>(std::thread::hardware_concurrency()));
    std::ofstream of("BENCH_model_swap_obs.json");
    of << obs::to_json(reg.snapshot());
  }

  // --- report ---------------------------------------------------------------
  const auto& sw = drift_run.stats.swap;
  std::ostringstream js;
  js << "{\n"
     << "  \"smoke\": " << json_bool(smoke) << ",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
     << "  \"trace_packets\": " << trace.size() << ",\n"
     << "  \"alloc_counting_active\": " << json_bool(harness::alloc_counting_active()) << ",\n"
     << "  \"drift_run\": {\"publishes\": " << sw.publishes
     << ", \"drift_fires\": " << sw.drift_fires
     << ", \"rebuilds\": " << sw.rebuilds
     << ", \"coalesced_triggers\": " << sw.coalesced_triggers
     << ", \"bundles_retired\": " << sw.bundles_retired
     << ", \"final_version\": " << sw.final_version
     << ", \"mirrors_applied\": " << sw.mirrors_applied
     << ", \"extensions_applied\": " << sw.extensions_applied
     << ", \"rejected_by_budget\": " << sw.rejected_by_budget << "},\n"
     << "  \"swap_off_ns_per_packet\": " << t_off.ns_per_packet << ",\n"
     << "  \"swap_on_ns_per_packet\": " << t_on.ns_per_packet << ",\n"
     << "  \"swap_overhead_ns_per_packet\": " << overhead_ns << ",\n"
     << "  \"swap_off_packets_per_sec\": " << t_off.packets_per_sec << ",\n"
     << "  \"swap_on_packets_per_sec\": " << t_on.packets_per_sec << ",\n"
     << "  \"steady_state_allocs_per_packet\": " << steady_allocs << ",\n"
     << "  \"swap_deterministic\": " << json_bool(swap_deterministic) << ",\n"
     << "  \"hitless_noop_equivalent\": " << json_bool(hitless) << ",\n"
     << "  \"no_packet_loss\": " << json_bool(no_loss) << ",\n"
     << "  \"drift_swapped\": " << json_bool(swapped) << "\n"
     << "}\n";

  std::ofstream f(out_path);
  f << js.str();
  f.close();
  std::cout << js.str();

  if (!swap_deterministic) {
    std::cerr << "FAIL: swap-enabled replay is not bit-identical across thread counts\n";
    return 1;
  }
  if (!hitless) {
    std::cerr << "FAIL: un-triggered swap loop perturbed the data plane\n";
    return 1;
  }
  if (!no_loss) {
    std::cerr << "FAIL: packet or mirror accounting does not balance\n";
    return 1;
  }
  if (!swapped) {
    std::cerr << "FAIL: drifting workload never published a new model version\n";
    return 1;
  }
  if (steady_allocs != 0) {
    std::cerr << "FAIL: swap-enabled steady-state path performed " << steady_allocs
              << " heap allocations\n";
    return 1;
  }
  return 0;
}
