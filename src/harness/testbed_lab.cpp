#include "harness/testbed_lab.hpp"

#include <algorithm>
#include <limits>

#include "eval/gridsearch.hpp"
#include "io/ingest.hpp"
#include "switchsim/flow_state.hpp"
#include "trafficgen/benign.hpp"

namespace iguard::harness {

namespace {
// Flow-level validation rows for one attack trace under switch extraction.
ml::Matrix switch_fl(const traffic::Trace& t, const TestbedLabConfig& cfg) {
  return switchsim::extract_switch_features(t, cfg.packet_threshold_n, cfg.idle_timeout_delta)
      .x;
}
}  // namespace

TestbedLab::TestbedLab(TestbedLabConfig cfg) : cfg_(std::move(cfg)) {
  ml::Rng rng(cfg_.seed);
  traffic::BenignConfig bcfg;
  bcfg.flows = cfg_.benign_train_flows;
  traffic::Trace train_trace = traffic::benign_trace(bcfg, rng);
  if (cfg_.poison_fraction > 0.0) {
    // Black-box poisoning: the attacker slips unlabeled attack flows into
    // the capture every model trains on (Table 2).
    traffic::AttackConfig pcfg;
    pcfg.flows = static_cast<std::size_t>(cfg_.poison_fraction *
                                          static_cast<double>(cfg_.benign_train_flows));
    traffic::Trace poison = traffic::attack_trace(cfg_.poison_type, pcfg, rng);
    for (auto& p : poison.packets) p.malicious = false;  // unlabeled to the victim
    std::vector<traffic::Trace> parts;
    parts.push_back(std::move(train_trace));
    parts.push_back(std::move(poison));
    train_trace = traffic::merge_traces(std::move(parts));
  }
  bcfg.flows = cfg_.benign_val_flows;
  benign_val_trace_ = traffic::benign_trace(bcfg, rng);
  bcfg.flows = cfg_.benign_test_flows;
  benign_test_trace_ = traffic::benign_trace(bcfg, rng);

  train_fl_ = switch_fl(train_trace, cfg_);
  train_pl_ = features::extract_packet_features(train_trace).x;
  val_benign_fl_ = switch_fl(benign_val_trace_, cfg_);

  teacher_.fit(train_fl_, cfg_.teacher, rng);
  for (const auto& fcfg : cfg_.iforest_grid) {
    iforests_.emplace_back(fcfg);
    iforests_.back().fit(train_fl_, rng);
  }
  fl_quantizer_ = rules::Quantizer(16);
  fl_quantizer_.fit(train_fl_);
}

traffic::Trace TestbedLab::make_attack_trace(traffic::AttackType type,
                                             std::uint64_t salt) const {
  traffic::AttackConfig acfg;
  acfg.flows = cfg_.attack_flows;
  ml::Rng arng(cfg_.seed ^ salt ^ (0xA77Au + 31u * static_cast<std::uint64_t>(type)));
  return traffic::attack_trace(type, acfg, arng);
}

TestbedOutcome TestbedLab::run_attack(traffic::AttackType type) const {
  return run_with_traces(make_attack_trace(type, 0x1111), make_attack_trace(type, 0x2222));
}

switchsim::DeployedModel Deployment::iguard_model() const {
  if (!guard->has_pl_model()) return core::build_bundle(1, guard->whitelist(), guard->quantizer());
  return core::build_bundle(1, guard->whitelist(), guard->quantizer(),
                            guard->pl_model().whitelist(), guard->pl_model().quantizer());
}

switchsim::DeployedModel Deployment::iforest_model() const {
  return core::build_bundle(1, iforest_rules, *fl_quantizer);
}

Deployment TestbedLab::deploy_attack(traffic::AttackType type) const {
  return deploy_with_traces(make_attack_trace(type, 0x1111), make_attack_trace(type, 0x2222));
}

Deployment TestbedLab::deploy_with_traces(const traffic::Trace& attack_val,
                                          const traffic::Trace& attack_test) const {
  Deployment dep;

  // --- validation split (flow level, switch features) ----------------------
  ml::Matrix val_x = val_benign_fl_;
  std::vector<int> val_y(val_benign_fl_.rows(), 0);
  const ml::Matrix attack_val_fl = switch_fl(attack_val, cfg_);
  // 20% attack share (as many as available, matching the paper's protocol).
  const std::size_t want = static_cast<std::size_t>(0.25 * static_cast<double>(val_x.rows()));
  for (std::size_t i = 0; i < std::min(want, attack_val_fl.rows()); ++i) {
    val_x.push_row(attack_val_fl.row(i));
    val_y.push_back(1);
  }

  // --- teacher calibration + iGuard selection by §4.2.1 reward -------------
  std::vector<double> base_t(teacher_.size());
  {
    std::vector<double> s(val_x.rows());
    for (std::size_t u = 0; u < teacher_.size(); ++u) {
      for (std::size_t i = 0; i < val_x.rows(); ++i)
        s[i] = teacher_.reconstruction_error(u, val_x.row(i));
      base_t[u] = eval::best_f1_threshold(val_y, s);
    }
  }
  core::IGuardConfig gcfg;
  gcfg.teacher = cfg_.teacher;
  gcfg.forest = cfg_.forest;
  gcfg.pl = cfg_.pl;
  // Deployments install one entry per leaf (unmerged): the controller
  // updates whitelist rules incrementally from benign traffic (Fig. 1,
  // step 12), which needs leaf-granularity entries. Matching semantics are
  // unchanged; only the Table 1 entry counts reflect it.
  gcfg.whitelist.merge_adjacent = false;
  gcfg.pl.whitelist.merge_adjacent = false;

  std::unique_ptr<core::IGuard> guard;
  double best_reward = -std::numeric_limits<double>::infinity();
  for (double scale : cfg_.scale_grid) {
    for (std::size_t u = 0; u < teacher_.size(); ++u)
      teacher_.set_member_threshold(u, base_t[u] * scale);
    auto cand = std::make_unique<core::IGuard>(gcfg);
    ml::Rng crng(cfg_.seed ^ 0x7E57u ^ static_cast<std::uint64_t>(scale * 1000.0));
    cand->fit_with_teacher(train_fl_, train_pl_, teacher_, crng);

    std::vector<int> vp(val_x.rows());
    std::vector<double> vs(val_x.rows());
    for (std::size_t i = 0; i < val_x.rows(); ++i) {
      vp[i] = cand->predict_flow(val_x.row(i));
      vs[i] = cand->vote_fraction(val_x.row(i));
    }
    const auto m = eval::evaluate(val_y, vp, vs);
    switchsim::DeploymentSpec spec;
    spec.fl_rules = &cand->whitelist();
    spec.pl_rules = &cand->pl_model().whitelist();
    spec.flow_slots = cfg_.pipe.flow_slots;
    spec.blacklist_capacity = cfg_.pipe.blacklist_capacity;
    const double rho = switchsim::estimate_resources(spec).rho();
    const double reward =
        eval::deployment_reward(m.macro_f1, m.pr_auc, m.roc_auc, rho, cfg_.reward_alpha);
    if (reward > best_reward) {
      best_reward = reward;
      dep.selected_scale = scale;
      guard = std::move(cand);
    }
  }
  for (std::size_t u = 0; u < teacher_.size(); ++u)
    teacher_.set_member_threshold(u, base_t[u]);

  // --- baseline iForest: calibrate, compile, reward-select (§4.2.1) --------
  core::WhitelistConfig baseline_wl;
  baseline_wl.clip = core::support_clip(train_fl_, fl_quantizer_, 0.0);
  baseline_wl.merge_adjacent = false;  // leaf-granularity entries (see above)
  core::VoteWhitelist baseline_compiled;
  double baseline_best = -std::numeric_limits<double>::infinity();
  for (const auto& candidate : iforests_) {
    ml::IsolationForest model = candidate;  // copy; threshold is per-attack
    std::vector<double> s(val_x.rows());
    for (std::size_t i = 0; i < val_x.rows(); ++i) s[i] = model.anomaly_score(val_x.row(i));
    model.set_threshold(eval::best_f1_threshold(val_y, s));

    core::VoteWhitelist compiled = core::compile_per_tree(model, fl_quantizer_, baseline_wl);
    switchsim::DeploymentSpec spec;
    spec.fl_rules = &compiled;
    spec.flow_slots = cfg_.pipe.flow_slots;
    spec.blacklist_capacity = cfg_.pipe.blacklist_capacity;
    const auto res = switchsim::estimate_resources(spec);
    if (res.tcam_frac > cfg_.max_tcam_fraction) continue;  // does not fit

    std::vector<int> vp(val_x.rows());
    std::vector<double> vs(val_x.rows());
    for (std::size_t i = 0; i < val_x.rows(); ++i) {
      const auto key = fl_quantizer_.quantize(val_x.row(i));
      vp[i] = compiled.classify(key);
      vs[i] = compiled.malicious_vote_fraction(key);
    }
    const auto m = eval::evaluate(val_y, vp, vs);
    const double reward =
        eval::deployment_reward(m.macro_f1, m.pr_auc, m.roc_auc, res.rho(), cfg_.reward_alpha);
    if (reward > baseline_best) {
      baseline_best = reward;
      baseline_compiled = std::move(compiled);
    }
  }

  // --- package the deployment ----------------------------------------------
  {
    std::vector<traffic::Trace> parts;
    parts.push_back(benign_test_trace_);
    parts.push_back(attack_test);
    dep.test_trace = traffic::merge_traces(std::move(parts));
  }
  dep.guard = std::move(guard);
  dep.iforest_rules = std::move(baseline_compiled);
  dep.fl_quantizer = &fl_quantizer_;
  return dep;
}

TestbedOutcome TestbedLab::run_with_traces(const traffic::Trace& attack_val,
                                           const traffic::Trace& attack_test) const {
  Deployment dep = deploy_with_traces(attack_val, attack_test);
  // Replay input crosses the hardened ingest boundary: anything a generator
  // or future file loader hands us is validated, with invalid packets
  // quarantined instead of reaching the pipeline. Valid traces pass through
  // untouched, so faithful runs stay byte-identical.
  {
    io::IngestResult ingest = io::ingest_trace(dep.test_trace);
    dep.test_trace = std::move(ingest.trace);
  }
  TestbedOutcome out;
  out.selected_scale = dep.selected_scale;
  for (const auto& p : dep.test_trace.packets) out.offered_bytes += p.length;
  out.trace_duration_s = dep.test_trace.duration();

  switchsim::Pipeline pipe_iguard(cfg_.pipe, dep.iguard_model());
  switchsim::Pipeline pipe_iforest(cfg_.pipe, dep.iforest_model());
  out.iguard_stats = pipe_iguard.run(dep.test_trace);
  out.iforest_stats = pipe_iforest.run(dep.test_trace);

  auto packet_metrics = [](const switchsim::SimStats& st) {
    std::vector<int> truth(st.truth.begin(), st.truth.end());
    std::vector<int> pred(st.pred.begin(), st.pred.end());
    std::vector<double> score(st.pred.begin(), st.pred.end());
    return eval::evaluate(truth, pred, score);
  };
  out.iguard = packet_metrics(out.iguard_stats);
  out.iforest = packet_metrics(out.iforest_stats);

  // --- resources (Table 1) --------------------------------------------------
  {
    switchsim::DeploymentSpec spec;
    spec.fl_rules = &dep.guard->whitelist();
    spec.pl_rules = &dep.guard->pl_model().whitelist();
    spec.flow_slots = cfg_.pipe.flow_slots;
    spec.blacklist_capacity = cfg_.pipe.blacklist_capacity;
    spec.vliw_slots = 31;  // + early-packet table action vs the baseline
    out.iguard_res = switchsim::estimate_resources(spec);
    out.iguard_fl_rules = dep.guard->whitelist().total_rules();
  }
  {
    switchsim::DeploymentSpec spec;
    spec.fl_rules = &dep.iforest_rules;
    spec.flow_slots = cfg_.pipe.flow_slots;
    spec.blacklist_capacity = cfg_.pipe.blacklist_capacity;
    out.iforest_res = switchsim::estimate_resources(spec);
    out.iforest_fl_rules = dep.iforest_rules.total_rules();
  }
  return out;
}

}  // namespace iguard::harness
