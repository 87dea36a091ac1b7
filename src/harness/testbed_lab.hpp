// Shared harness for the paper's testbed experiments (§4.2, Figs. 6/9,
// Tables 1-3 switch rows, App. B): everything runs under data-plane
// constraints — the 13 integer FL features truncated at (n, delta), the 4
// PL features for early packets, whitelist rules compiled into tables, and
// per-packet verdicts measured by replaying traces through the pipeline
// simulator. The conventional-iForest baseline is deployed through the
// same machinery (path-length rule compilation, as HorusEye does).
#pragma once

#include <memory>

#include "core/iguard.hpp"
#include "eval/metrics.hpp"
#include "ml/iforest.hpp"
#include "switchsim/pipeline.hpp"
#include "switchsim/resources.hpp"
#include "trafficgen/attacks.hpp"

namespace iguard::harness {

struct TestbedLabConfig {
  std::size_t benign_train_flows = 3000;
  std::size_t benign_val_flows = 700;
  std::size_t benign_test_flows = 700;
  std::size_t attack_flows = 200;
  std::size_t packet_threshold_n = 32;  // the paper's n (grid-searched there)
  double idle_timeout_delta = 10.0;     // the paper's delta (seconds)
  core::AeEnsembleConfig teacher{.ensemble_size = 3,
                                 .base = ml::testbed_autoencoder_config()};
  core::GuidedForestConfig forest{};
  /// Baseline candidates (the paper's (t, Psi) grid): the deployed config
  /// is reward-selected per §4.2.1 among those whose compiled rules fit the
  /// switch — exactly "best version under the given memory budget".
  /// Candidate sizes mirror prior work's deployed iForests (sklearn /
  /// HorusEye default Psi = 256, fully grown trees).
  /// Without a teacher, conventional iForests need larger ensembles for
  /// stable path statistics, so prior deployments ran at least as many
  /// trees as iGuard (HorusEye defaults to sklearn's Psi = 256).
  std::vector<ml::IsolationForestConfig> iforest_grid{
      {.num_trees = 5, .subsample = 256, .contamination = 0.05},
      {.num_trees = 7, .subsample = 256, .contamination = 0.05},
      {.num_trees = 5, .subsample = 512, .contamination = 0.05},
      {.num_trees = 7, .subsample = 512, .contamination = 0.05},
  };
  double max_tcam_fraction = 0.60;  // deployability ceiling for one program
  core::PlModelConfig pl{};
  std::vector<double> scale_grid{0.9, 1.1, 1.3, 1.5};
  switchsim::PipelineConfig pipe{};
  double reward_alpha = 0.5;  // §4.2.1 reward weight
  /// Training-set poisoning (Table 2): fraction of benign training flows
  /// replaced-by-addition with unlabeled attack flows of `poison_type`.
  double poison_fraction = 0.0;
  traffic::AttackType poison_type = traffic::AttackType::kMirai;
  std::uint64_t seed = 2024;
};

/// Everything one attack's testbed run produces.
struct TestbedOutcome {
  // Per-packet detection metrics from the replay (the paper's Fig. 6/9).
  eval::DetectionMetrics iguard;
  eval::DetectionMetrics iforest;
  // Switch resource usage of each deployment (Table 1).
  switchsim::ResourceUsage iguard_res;
  switchsim::ResourceUsage iforest_res;
  // Replay statistics (paths, digests, mirrors) for App. B.
  switchsim::SimStats iguard_stats;
  switchsim::SimStats iforest_stats;
  // Offered load of the replayed test trace, bytes.
  std::size_t offered_bytes = 0;
  double trace_duration_s = 0.0;
  double selected_scale = 1.0;
  std::size_t iguard_fl_rules = 0;
  std::size_t iforest_fl_rules = 0;
};

/// A calibrated deployment plus the replay trace: everything needed to
/// re-run the same compiled rules under many pipeline / control-plane
/// configurations (the fault-resilience bench replays one Deployment dozens
/// of times without re-training).
struct Deployment {
  std::unique_ptr<core::IGuard> guard;      // selected iGuard model
  core::VoteWhitelist iforest_rules;        // selected baseline rules
  const rules::Quantizer* fl_quantizer = nullptr;  // owned by the lab
  traffic::Trace test_trace;                // merged benign-test + attack
  double selected_scale = 1.0;

  /// Build the deployment bundle (version 1) of each system: the control
  /// plane's one compile. Call once and hand the result to every pipeline,
  /// shard and device that serves the deployment.
  switchsim::DeployedModel iguard_model() const;
  switchsim::DeployedModel iforest_model() const;
};

class TestbedLab {
 public:
  explicit TestbedLab(TestbedLabConfig cfg);

  /// Full §4.2 run for one attack: calibrate on validation, deploy both
  /// systems, replay benign-test + attack traffic, measure per packet.
  TestbedOutcome run_attack(traffic::AttackType type) const;

  /// Same, but with caller-supplied attack traces (adversarial variants).
  TestbedOutcome run_with_traces(const traffic::Trace& attack_val,
                                 const traffic::Trace& attack_test) const;

  /// Training/selection half of run_with_traces: calibrate the teacher,
  /// reward-select iGuard and the baseline, and build the replay trace —
  /// but do not replay. Callers replay the returned Deployment through
  /// switchsim::Pipeline under whatever PipelineConfig they want.
  Deployment deploy_with_traces(const traffic::Trace& attack_val,
                                const traffic::Trace& attack_test) const;
  Deployment deploy_attack(traffic::AttackType type) const;

  const ml::Matrix& train_fl() const { return train_fl_; }
  const TestbedLabConfig& config() const { return cfg_; }
  /// Attack trace generator with the lab's sizing (exposed so adversarial
  /// benches can transform it before running).
  traffic::Trace make_attack_trace(traffic::AttackType type, std::uint64_t salt) const;

 private:
  TestbedLabConfig cfg_;
  traffic::Trace benign_val_trace_, benign_test_trace_;
  ml::Matrix train_fl_;   // integer switch features from the training trace
  ml::Matrix train_pl_;   // benign early-packet PL features
  ml::Matrix val_benign_fl_;
  mutable core::AeEnsemble teacher_;
  std::vector<ml::IsolationForest> iforests_;  // one per grid candidate
  rules::Quantizer fl_quantizer_;
};

}  // namespace iguard::harness
