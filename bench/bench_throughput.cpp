// Replay-throughput benchmark for the packet path (DESIGN.md §4c): replays
// a mixed benign+attack trace through the pipeline simulator at 1/2/4/8
// shards and writes BENCH_pipeline.json (packets/sec, ns/packet,
// allocations/packet) so future PRs have a perf trajectory to regress
// against. Doubles as a drift gate: it exits non-zero if the compiled
// interval-bitmap engine disagrees with the linear-scan oracle
// (core::VoteWhitelist) on any PL key or FL finalisation key of the trace,
// if the sharded replay is not bit-identical across thread counts, or if
// the steady-state path allocates — which is how the ctest smoke entry
// catches match-engine regressions.
//
//   bench_throughput [--smoke] [--out <path>]
//
// --smoke shrinks the trace so the gate stays fast under sanitizers.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/alloc_counter.hpp"
#include "ml/rng.hpp"
#include "obs/metrics.hpp"
#include "switchsim/flow_state.hpp"
#include "switchsim/replay.hpp"
#include "trafficgen/attacks.hpp"
#include "trafficgen/benign.hpp"

using namespace iguard;

namespace {

struct RunResult {
  std::size_t shards = 0;
  double packets_per_sec = 0.0;
  double ns_per_packet = 0.0;
  double allocs_per_packet = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Per-tree whitelist with a controlled rule budget: `tables` tables of
/// `rules_per_table` hypercubes around sampled feature rows — the shape
/// compile_per_tree produces, without paying for teacher training in a
/// perf bench.
core::VoteWhitelist make_whitelist(const ml::Matrix& features, const rules::Quantizer& quant,
                                   std::size_t tables, std::size_t rules_per_table,
                                   ml::Rng& rng) {
  core::VoteWhitelist wl;
  wl.tree_count = tables;
  const std::uint32_t dmax = quant.domain_max();
  const std::uint32_t halfwidth = dmax / 6;
  for (std::size_t t = 0; t < tables; ++t) {
    std::vector<rules::RangeRule> tree_rules;
    for (std::size_t r = 0; r < rules_per_table; ++r) {
      const auto row = features.row(rng.index(features.rows()));
      std::vector<rules::FieldRange> box(features.cols());
      for (std::size_t j = 0; j < box.size(); ++j) {
        const std::uint32_t q = quant.quantize_value(j, row[j]);
        box[j] = {q > halfwidth ? q - halfwidth : 0,
                  q < dmax - halfwidth ? q + halfwidth : dmax};
      }
      tree_rules.push_back({std::move(box), 0, static_cast<int>(r)});
    }
    wl.tables.emplace_back(std::move(tree_rules));
  }
  return wl;
}

/// Synthetic deployment: `tables` x `rules_per_table` TCAM entries on BOTH
/// whitelists. The PL table is what every brown/orange packet consults, so
/// a realistic per-packet rule budget there is what the match engine is
/// timed against; the FL tables are hit on every finalisation. Compiled
/// once into one bundle that every pipeline, all K shards included, shares.
switchsim::DeployedModel synthetic_model(const traffic::Trace& trace,
                                         const ml::Matrix& fl_features, std::size_t tables,
                                         std::size_t rules_per_table, ml::Rng& rng) {
  rules::Quantizer fl_quant{16}, pl_quant{16};
  fl_quant.fit(fl_features);
  core::VoteWhitelist fl = make_whitelist(fl_features, fl_quant, tables, rules_per_table, rng);

  // PL features of sampled packets: {dst_port, proto, length, TTL}.
  const std::size_t n_pl = std::min<std::size_t>(trace.size(), 4096);
  ml::Matrix pl_features(n_pl, 4);
  for (std::size_t i = 0; i < n_pl; ++i) {
    const auto& p = trace.packets[rng.index(trace.size())];
    pl_features(i, 0) = static_cast<double>(p.ft.dst_port);
    pl_features(i, 1) = static_cast<double>(p.ft.proto);
    pl_features(i, 2) = static_cast<double>(p.length);
    pl_features(i, 3) = static_cast<double>(p.ttl);
  }
  pl_quant.fit(pl_features);
  core::VoteWhitelist pl = make_whitelist(pl_features, pl_quant, tables, rules_per_table, rng);
  return core::build_bundle(1, std::move(fl), std::move(fl_quant), std::move(pl),
                            std::move(pl_quant));
}

switchsim::PipelineConfig pipe_config(bool record_labels) {
  switchsim::PipelineConfig cfg;
  cfg.record_labels = record_labels;
  // n = 8 keeps finalisations frequent, so the FL tables are exercised on a
  // meaningful share of packets rather than once per long-lived flow.
  cfg.packet_threshold_n = 8;
  return cfg;
}

RunResult measure(const traffic::Trace& trace, const switchsim::DeployedModel& dm,
                  std::size_t shards, std::size_t reps) {
  RunResult r;
  r.shards = shards;
  switchsim::ReplayConfig rc;
  rc.shards = shards;
  // One untimed replay first, so heap first-touch and cold caches are not
  // charged to whichever config happens to be timed first.
  (void)switchsim::replay_sharded(trace, pipe_config(false), dm, rc);
  const std::size_t a0 = harness::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t packets = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto out = switchsim::replay_sharded(trace, pipe_config(false), dm, rc);
    packets += out.stats.packets;
  }
  const double elapsed = seconds_since(t0);
  const std::size_t allocs = harness::alloc_count() - a0;
  r.packets_per_sec = static_cast<double>(packets) / elapsed;
  r.ns_per_packet = elapsed * 1e9 / static_cast<double>(packets);
  r.allocs_per_packet = static_cast<double>(allocs) / static_cast<double>(packets);
  return r;
}

/// Engine parity at the lookup level: the bundle's compiled engines must give
/// its linear tables' verdict and per-table vote share for every PL key the
/// trace presents (one per packet) and every FL finalisation key (the
/// switch extractor's epochs at the bench's n and delta, single-packet
/// epochs included).
struct EngineParity {
  std::size_t pl_keys = 0;
  std::size_t fl_keys = 0;
  bool agree = true;
};

EngineParity engine_parity(const traffic::Trace& trace, const core::ModelBundle& m,
                           const switchsim::PipelineConfig& cfg) {
  EngineParity out;
  const auto check = [&out](const core::VoteWhitelist& lin,
                            const core::CompiledVoteWhitelist& comp,
                            std::span<const std::uint32_t> key) {
    out.agree = out.agree && comp.classify(key) == lin.classify(key) &&
                comp.malicious_vote_fraction(key) == lin.malicious_vote_fraction(key);
  };
  std::array<std::uint32_t, 4> pl_key;
  for (const auto& p : trace.packets) {
    const double f[4] = {static_cast<double>(p.ft.dst_port), static_cast<double>(p.ft.proto),
                         static_cast<double>(p.length), static_cast<double>(p.ttl)};
    m.pl_q.quantize_into(f, pl_key);
    check(m.pl, m.pl_compiled, pl_key);
  }
  out.pl_keys = trace.size();
  const auto fl = switchsim::extract_switch_features(trace, cfg.packet_threshold_n,
                                                     cfg.idle_timeout_delta, 1);
  std::array<std::uint32_t, switchsim::kSwitchFlFeatures> fl_key;
  for (std::size_t i = 0; i < fl.x.rows(); ++i) {
    m.fl_q.quantize_into(fl.x.row(i), fl_key);
    check(m.fl, m.fl_compiled, fl_key);
  }
  out.fl_keys = fl.x.rows();
  return out;
}

/// Steady-state probe (mirrors tests/test_alloc_path.cpp): allocations per
/// packet once every flow in play is classified — must be exactly 0.
std::size_t steady_state_allocs(const switchsim::DeployedModel& dm) {
  auto cfg = pipe_config(false);
  cfg.packet_threshold_n = 4;
  cfg.idle_timeout_delta = 1e6;
  switchsim::Pipeline pipe(cfg, dm);
  switchsim::SimStats st;
  traffic::Packet p;
  p.ft = {0x0A000001u, 0x0A000002u, 4242, 443, traffic::kProtoTcp};
  p.length = 120;
  double ts = 0.0;
  for (int i = 0; i < 8; ++i) {
    p.ts = (ts += 0.001);
    pipe.process(p, st);  // classify the flow: purple from here on
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
  std::string out_path = "BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: bench_throughput [--smoke] [--out <path>]\n";
      return 2;
    }
  }

  // --- workload -------------------------------------------------------------
  // Flow-rich botnet + scan mix: thousands of short flows, so most packets
  // are pre-threshold (brown -> per-packet PL match) or finalisations
  // (blue -> FL match). This is the regime where the match engine is the
  // bottleneck — long-lived flood flows would hide it behind the blacklist
  // and stored-label fast paths (red/purple), which never consult rules.
  ml::Rng rng(0xBE7CAull);
  traffic::BenignConfig bcfg;
  bcfg.flows = smoke ? 30 : 600;
  traffic::AttackConfig acfg;
  acfg.flows = smoke ? 250 : 5000;
  const traffic::Trace benign = traffic::benign_trace(bcfg, rng);
  std::vector<traffic::Trace> parts;
  parts.push_back(benign);
  parts.push_back(traffic::attack_trace(traffic::AttackType::kMirai, acfg, rng));
  parts.push_back(traffic::attack_trace(traffic::AttackType::kAidra, acfg, rng));
  parts.push_back(traffic::attack_trace(traffic::AttackType::kOsScan, acfg, rng));
  const traffic::Trace trace = traffic::merge_traces(std::move(parts));

  // Whitelists are fitted on benign flows only (as in deployment), so the
  // attack majority of the trace misses every rule — the case where the
  // linear scan pays for the full table and the interval index does not.
  const auto features = switchsim::extract_switch_features(benign, 8, 10.0);
  const std::size_t rules_per_table = 512;  // >= the 64-rule acceptance floor
  const std::size_t tables = 5;             // 2560 entries: a realistic TCAM budget
  const switchsim::DeployedModel dm =
      synthetic_model(benign, features.x, tables, rules_per_table, rng);

  // --- correctness gates ----------------------------------------------------
  // 1. Engine parity: the compiled engine matches the linear oracle on every
  //    PL and FL key the trace can present.
  const EngineParity parity = engine_parity(trace, *dm, pipe_config(false));

  // 2. Shard determinism: same K, different thread counts, same everything.
  switchsim::ReplayConfig det;
  det.shards = 4;
  det.num_threads = 1;
  const auto d1 = switchsim::replay_sharded(trace, pipe_config(true), dm, det);
  det.num_threads = 4;
  const auto d4 = switchsim::replay_sharded(trace, pipe_config(true), dm, det);
  const bool sharded_deterministic =
      d1.stats.pred == d4.stats.pred && d1.stats.dropped == d4.stats.dropped &&
      d1.stats.path_count == d4.stats.path_count;

  // 3. Zero-allocation steady state (skipped under sanitizers, which own
  //    the allocator and make the counter blind).
  const std::size_t steady_allocs =
      harness::alloc_counting_active() ? steady_state_allocs(dm) : 0;

  // --- timing sweep ---------------------------------------------------------
  const std::size_t reps = smoke ? 1 : 3;
  std::vector<RunResult> runs;
  for (const std::size_t shards : smoke ? std::vector<std::size_t>{1, 2}
                                        : std::vector<std::size_t>{1, 2, 4, 8}) {
    runs.push_back(measure(trace, dm, shards, reps));
  }

  // --- per-stage observability breakdown ------------------------------------
  // One instrumented 2-shard replay (DESIGN.md §4d): per-path packet counts
  // and latency histograms, occupancy gauges, control-plane counters, shard
  // wall times and pool queue waits. Written as a separate artifact so the
  // gate JSON above keeps its exact schema; non-"timing." keys in it are
  // byte-deterministic (check.sh --obs-smoke asserts so).
  {
    obs::Registry reg;
    auto ocfg = pipe_config(false);
    ocfg.metrics = &reg;
    switchsim::ReplayConfig rc;
    rc.shards = 2;
    (void)switchsim::replay_sharded(trace, ocfg, dm, rc);
    reg.gauge("host.hardware_threads")
        .set(static_cast<double>(std::thread::hardware_concurrency()));
    std::ofstream of("BENCH_pipeline_obs.json");
    of << obs::to_json(reg.snapshot());
  }

  // --- report ---------------------------------------------------------------
  // Path mix of one unsharded replay: which paths the timings above paid for.
  const auto st = switchsim::Pipeline(pipe_config(false), dm).run(trace);
  std::ostringstream js;
  js << "{\n"
     << "  \"smoke\": " << json_bool(smoke) << ",\n"
     // Shard scaling is bounded by physical parallelism: on a 1-core host
     // the shard sweep measures overhead only (the determinism gate still
     // proves the sharded path correct at any thread count).
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
     << "  \"trace_packets\": " << trace.size() << ",\n"
     << "  \"fl_tables\": " << tables << ",\n"
     << "  \"fl_rules_per_table\": " << rules_per_table << ",\n"
     << "  \"alloc_counting_active\": " << json_bool(harness::alloc_counting_active()) << ",\n"
     << "  \"configs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    js << "    {\"engine\": \"compiled\", \"shards\": " << r.shards
       << ", \"packets_per_sec\": " << r.packets_per_sec
       << ", \"ns_per_packet\": " << r.ns_per_packet
       << ", \"allocs_per_packet\": " << r.allocs_per_packet << "}"
       << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  js << "  ],\n"
     << "  \"path_counts\": {\"red\": " << st.path(switchsim::Path::kRed)
     << ", \"brown\": " << st.path(switchsim::Path::kBrown)
     << ", \"blue\": " << st.path(switchsim::Path::kBlue)
     << ", \"purple\": " << st.path(switchsim::Path::kPurple)
     << ", \"orange\": " << st.path(switchsim::Path::kOrange) << "},\n"
     << "  \"parity_keys\": {\"pl\": " << parity.pl_keys << ", \"fl\": " << parity.fl_keys
     << "},\n"
     << "  \"steady_state_allocs_per_packet\": " << steady_allocs << ",\n"
     << "  \"compiled_equals_linear\": " << json_bool(parity.agree) << ",\n"
     << "  \"sharded_deterministic\": " << json_bool(sharded_deterministic) << "\n"
     << "}\n";

  std::ofstream f(out_path);
  f << js.str();
  f.close();
  std::cout << js.str();

  if (!parity.agree) {
    std::cerr << "FAIL: compiled engine verdicts diverge from the linear scan\n";
    return 1;
  }
  if (!sharded_deterministic) {
    std::cerr << "FAIL: sharded replay is not bit-identical across thread counts\n";
    return 1;
  }
  if (steady_allocs != 0) {
    std::cerr << "FAIL: steady-state packet path performed " << steady_allocs
              << " heap allocations\n";
    return 1;
  }
  return 0;
}
