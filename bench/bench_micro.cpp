// Component microbenchmarks (google-benchmark): the hot paths of the
// deployed system — hashing, register updates, rule matching, tree
// traversal, autoencoder inference — plus end-to-end packet processing in
// the pipeline simulator.
#include <benchmark/benchmark.h>

#include "core/iguard.hpp"
#include "harness/testbed_lab.hpp"
#include "switchsim/flow_state.hpp"
#include "switchsim/pipeline.hpp"
#include "trafficgen/attacks.hpp"
#include "trafficgen/benign.hpp"

using namespace iguard;

namespace {

traffic::Packet sample_packet() {
  traffic::Packet p;
  p.ts = 1.5;
  p.ft = {0xC0A80105u, 0x08080808u, 44321, 443, traffic::kProtoTcp};
  p.length = 512;
  p.ttl = 64;
  return p;
}

void BM_Bihash(benchmark::State& state) {
  const auto p = sample_packet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(traffic::bihash(p.ft, 42));
  }
}
BENCHMARK(BM_Bihash);

void BM_FlowStateUpdate(benchmark::State& state) {
  switchsim::IntFlowState st;
  auto p = sample_packet();
  for (auto _ : state) {
    p.ts += 1e-4;
    st.update(p, 12345);
    benchmark::DoNotOptimize(st.pkt_count);
  }
}
BENCHMARK(BM_FlowStateUpdate);

void BM_FlowStateFinalize(benchmark::State& state) {
  switchsim::IntFlowState st;
  auto p = sample_packet();
  for (int i = 0; i < 32; ++i) {
    p.ts += 1e-4;
    st.update(p, 12345);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(st.finalize());
  }
}
BENCHMARK(BM_FlowStateFinalize);

// One fully-trained deployment shared by the heavier benchmarks.
const harness::TestbedLab& lab() {
  static harness::TestbedLab instance{[] {
    harness::TestbedLabConfig cfg;
    cfg.benign_train_flows = 1200;
    cfg.benign_val_flows = 300;
    cfg.benign_test_flows = 300;
    cfg.attack_flows = 80;
    cfg.scale_grid = {1.1};
    cfg.teacher.num_threads = 0;  // 0 = hardware concurrency
    cfg.forest.num_threads = 0;
    return cfg;
  }()};
  return instance;
}

struct Deployed {
  std::unique_ptr<core::IGuard> guard;
  Deployed() {
    core::IGuardConfig gcfg;
    gcfg.teacher.base = ml::testbed_autoencoder_config();
    gcfg.teacher.num_threads = 0;
    gcfg.forest.num_threads = 0;
    guard = std::make_unique<core::IGuard>(gcfg);
    ml::Rng rng(7);
    guard->fit(lab().train_fl(), ml::Matrix{}, rng);
  }
};

const Deployed& deployed() {
  static Deployed d;
  return d;
}

void BM_RuleTableMatch(benchmark::State& state) {
  const auto& g = *deployed().guard;
  switchsim::IntFlowState st;
  auto p = sample_packet();
  for (int i = 0; i < 32; ++i) {
    p.ts += 1e-4;
    st.update(p, 12345);
  }
  const auto f = st.finalize();
  const auto key = g.quantizer().quantize(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.whitelist().classify(key));
  }
  state.counters["rules"] = static_cast<double>(g.whitelist().total_rules());
}
BENCHMARK(BM_RuleTableMatch);

void BM_GuidedForestVote(benchmark::State& state) {
  const auto& g = *deployed().guard;
  switchsim::IntFlowState st;
  auto p = sample_packet();
  for (int i = 0; i < 32; ++i) {
    p.ts += 1e-4;
    st.update(p, 12345);
  }
  const auto f = st.finalize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.predict_flow_model(f));
  }
}
BENCHMARK(BM_GuidedForestVote);

void BM_TeacherReconstruction(benchmark::State& state) {
  auto& g = *deployed().guard;
  switchsim::IntFlowState st;
  auto p = sample_packet();
  for (int i = 0; i < 32; ++i) {
    p.ts += 1e-4;
    st.update(p, 12345);
  }
  const auto f = st.finalize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.teacher().reconstruction_error(0, f));
  }
}
BENCHMARK(BM_TeacherReconstruction);

bool same_forest(const core::GuidedIsolationForest& a, const core::GuidedIsolationForest& b) {
  if (a.trees().size() != b.trees().size()) return false;
  for (std::size_t t = 0; t < a.trees().size(); ++t) {
    const auto& na = a.trees()[t].nodes;
    const auto& nb = b.trees()[t].nodes;
    if (na.size() != nb.size()) return false;
    for (std::size_t i = 0; i < na.size(); ++i) {
      if (na[i].feature != nb[i].feature || na[i].threshold != nb[i].threshold ||
          na[i].left != nb[i].left || na[i].right != nb[i].right ||
          na[i].label != nb[i].label || na[i].leaf_re != nb[i].leaf_re ||
          na[i].box_lo != nb[i].box_lo || na[i].box_hi != nb[i].box_hi) {
        return false;
      }
    }
  }
  return true;
}

// Forest fit throughput at a given thread count (arg 0; 0 = all cores).
// Run Arg(1) vs Arg(0) to read the parallel speedup directly; the
// "identical" counter asserts the parallel fit is bit-identical to the
// sequential one under the same seed.
void BM_GuidedForestFit(benchmark::State& state) {
  const auto& g = *deployed().guard;
  const ml::Matrix& train = lab().train_fl();
  core::GuidedForestConfig fcfg;
  fcfg.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::GuidedIsolationForest forest(fcfg);
    ml::Rng rng(7);
    forest.fit(train, g.teacher(), rng);
    benchmark::DoNotOptimize(forest.trees().size());
  }
  core::GuidedIsolationForest par(fcfg);
  {
    ml::Rng rng(7);
    par.fit(train, g.teacher(), rng);
  }
  core::GuidedForestConfig scfg = fcfg;
  scfg.num_threads = 1;
  core::GuidedIsolationForest seq(scfg);
  {
    ml::Rng rng(7);
    seq.fit(train, g.teacher(), rng);
  }
  state.counters["identical"] = same_forest(seq, par) ? 1.0 : 0.0;
}
BENCHMARK(BM_GuidedForestFit)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PipelineProcess(benchmark::State& state) {
  const auto& g = *deployed().guard;
  const switchsim::DeployedModel dm = core::build_bundle(1, g.whitelist(), g.quantizer());
  switchsim::PipelineConfig pcfg;
  switchsim::Pipeline pipe(pcfg, dm);
  switchsim::SimStats stats;

  traffic::BenignConfig bcfg;
  bcfg.flows = 300;
  ml::Rng rng(3);
  const auto trace = traffic::benign_trace(bcfg, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    pipe.process(trace.packets[i], stats);
    i = (i + 1) % trace.packets.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineProcess);

}  // namespace

BENCHMARK_MAIN();
