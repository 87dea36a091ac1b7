#include "core/model_swap.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace iguard::core {

std::shared_ptr<const ModelBundle> build_bundle(std::uint64_t version, VoteWhitelist fl,
                                                rules::Quantizer fl_q, VoteWhitelist pl,
                                                rules::Quantizer pl_q) {
  auto b = std::make_shared<ModelBundle>();
  b->version = version;
  b->fl = std::move(fl);
  b->pl = std::move(pl);
  b->fl_q = std::move(fl_q);
  b->pl_q = std::move(pl_q);
  b->fl_compiled = CompiledVoteWhitelist(b->fl);
  if (b->has_pl()) b->pl_compiled = CompiledVoteWhitelist(b->pl);
  return b;
}

// --- ModelHandle -----------------------------------------------------------

ModelHandle::ModelHandle(std::shared_ptr<const ModelBundle> initial)
    : cur_(initial.get()), live_(std::move(initial)) {
  if (live_ == nullptr) throw std::invalid_argument("ModelHandle: initial bundle is null");
}

std::size_t ModelHandle::register_reader() {
  std::lock_guard<std::mutex> lock(mu_);
  if (slots_.size() >= kMaxReaders) {
    throw std::length_error("ModelHandle: reader slots exhausted");
  }
  slots_.push_back(std::make_unique<std::atomic<const ModelBundle*>>(nullptr));
  return slots_.size() - 1;
}

const ModelBundle* ModelHandle::pin(std::size_t reader) {
  std::atomic<const ModelBundle*>& slot = *slots_[reader];
  const ModelBundle* b = cur_.load(std::memory_order_acquire);
  // Fast path, every packet between publishes: the slot already holds the
  // current bundle. Only this reader writes its slot, and on entry the slot
  // holds null or the bundle its last pin confirmed; that bundle has been
  // advertised continuously since the confirm, so collect() cannot have
  // freed it and no other bundle can have reused its address. No store and
  // no fence are needed to keep protecting it.
  if (slot.load(std::memory_order_relaxed) == b) return b;
  for (;;) {
    // Hazard protocol: advertise the candidate pointer, then confirm it is
    // still current. The candidate is never dereferenced before the
    // confirm load succeeds, so a concurrent publish+collect that freed it
    // in the gap only costs a retry. Once confirmed, any publish() that
    // retires `b` happened-after the slot store, so collect() observes the
    // pin and keeps the bundle alive. The seq_cst pair provides the
    // StoreLoad ordering the protocol needs.
    slot.store(b, std::memory_order_seq_cst);
    const ModelBundle* now = cur_.load(std::memory_order_seq_cst);
    if (now == b) return b;
    b = now;
  }
}

void ModelHandle::quiesce(std::size_t reader) {
  slots_[reader]->store(nullptr, std::memory_order_seq_cst);
}

std::uint64_t ModelHandle::publish(std::shared_ptr<const ModelBundle> next) {
  if (next == nullptr) throw std::invalid_argument("ModelHandle: published bundle is null");
  std::lock_guard<std::mutex> lock(mu_);
  if (next->version <= live_->version) {
    throw std::invalid_argument("ModelHandle: published version must increase");
  }
  retired_.push_back(std::move(live_));
  live_ = std::move(next);
  cur_.store(live_.get(), std::memory_order_seq_cst);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return live_->version;
}

std::size_t ModelHandle::collect() {
  std::lock_guard<std::mutex> lock(mu_);
  // A retired bundle is reclaimable once no hazard slot advertises it. A
  // stale slot that happens to alias a *newer* bundle's address only keeps
  // that newer bundle alive longer — conservative, never unsafe.
  std::size_t reclaimed = 0;
  std::erase_if(retired_, [&](const std::shared_ptr<const ModelBundle>& b) {
    for (const auto& slot : slots_) {
      if (slot->load(std::memory_order_seq_cst) == b.get()) return false;
    }
    ++reclaimed;
    return true;
  });
  return reclaimed;
}

std::size_t ModelHandle::retired_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_.size();
}

// --- DriftDetector ---------------------------------------------------------

DriftSignal DriftDetector::observe(double miss_fraction, bool fully_covered,
                                   std::size_t rejected_total) {
  if (!cfg_.enabled || cfg_.window == 0) return DriftSignal::kNone;
  if (!have_rejected_start_) {
    rejected_at_window_start_ = rejected_total;
    have_rejected_start_ = true;
  }
  ++obs_in_window_;
  if (!fully_covered) ++misses_in_window_;
  vote_sum_ += miss_fraction;
  if (obs_in_window_ < cfg_.window) return DriftSignal::kNone;

  // Window boundary: summarise, then judge or calibrate.
  const double n = static_cast<double>(obs_in_window_);
  last_miss_rate_ = static_cast<double>(misses_in_window_) / n;
  last_vote_ = vote_sum_ / n;
  const std::size_t rejected_delta = rejected_total - rejected_at_window_start_;
  ++windows_closed_;
  obs_in_window_ = 0;
  misses_in_window_ = 0;
  vote_sum_ = 0.0;
  rejected_at_window_start_ = rejected_total;

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return DriftSignal::kNone;
  }
  if (!baseline_ready_) {
    baseline_miss_accum_ += last_miss_rate_;
    baseline_vote_accum_ += last_vote_;
    if (++baseline_accum_windows_ >= std::max<std::size_t>(cfg_.baseline_windows, 1)) {
      const double w = static_cast<double>(baseline_accum_windows_);
      baseline_miss_rate_ = baseline_miss_accum_ / w;
      baseline_vote_ = baseline_vote_accum_ / w;
      baseline_ready_ = true;
    }
    return DriftSignal::kNone;
  }
  // Strongest-signal order: a rising miss rate is the most direct evidence
  // the deployed whitelist no longer covers benign traffic.
  if (last_miss_rate_ > baseline_miss_rate_ + cfg_.miss_rate_margin) {
    ++fires_;
    return DriftSignal::kMissRate;
  }
  if (last_vote_ > baseline_vote_ + cfg_.vote_shift ||
      last_vote_ + cfg_.vote_shift < baseline_vote_) {
    ++fires_;
    return DriftSignal::kVoteShift;
  }
  if (cfg_.rejected_slope > 0 && rejected_delta >= cfg_.rejected_slope) {
    ++fires_;
    return DriftSignal::kRejectedSlope;
  }
  return DriftSignal::kNone;
}

void DriftDetector::reset() {
  obs_in_window_ = 0;
  misses_in_window_ = 0;
  vote_sum_ = 0.0;
  have_rejected_start_ = false;
  rejected_at_window_start_ = 0;
  baseline_ready_ = false;
  baseline_accum_windows_ = 0;
  baseline_miss_accum_ = 0.0;
  baseline_vote_accum_ = 0.0;
  baseline_miss_rate_ = 0.0;
  baseline_vote_ = 0.0;
  cooldown_left_ = cfg_.cooldown_windows;
}

// --- Rebuilders ------------------------------------------------------------

ModelRebuilder recompile_rebuilder() {
  return [](const RebuildInput& in) {
    return build_bundle(in.new_version, *in.staging_fl, in.current->fl_q, in.current->pl,
                        in.current->pl_q);
  };
}

ModelRebuilder distill_rebuilder(const AeEnsemble& teacher, GuidedForestConfig forest_cfg,
                                 WhitelistConfig whitelist_cfg, std::size_t min_rows,
                                 std::uint64_t seed) {
  return [&teacher, forest_cfg, whitelist_cfg, min_rows,
          seed](const RebuildInput& in) -> std::shared_ptr<const ModelBundle> {
    if (in.recent == nullptr || in.recent->rows() < std::max<std::size_t>(min_rows, 1)) {
      // Not enough retained traffic to learn from: fall back to publishing
      // the staging extensions, which is always safe.
      return recompile_rebuilder()(in);
    }
    GuidedIsolationForest forest(forest_cfg);
    ml::Rng rng(seed + in.new_version);  // per-version stream, still deterministic
    forest.fit(*in.recent, teacher, rng);
    WhitelistConfig wcfg = whitelist_cfg;
    // Robust support of the *recent* epochs: the refreshed whitelist must
    // not admit feature values the drifted benign traffic never produced.
    wcfg.clip = support_clip(*in.recent, in.current->fl_q);
    VoteWhitelist fresh = compile_per_tree(forest, in.current->fl_q, wcfg);
    return build_bundle(in.new_version, std::move(fresh), in.current->fl_q, in.current->pl,
                        in.current->pl_q);
  };
}

}  // namespace iguard::core
