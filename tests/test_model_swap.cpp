// core/model_swap.hpp: versioned bundles, the hazard-slot publication
// protocol, windowed drift detection, and the rebuilders — plus the
// regression test for the stale compiled-whitelist skew the subsystem
// exists to remove (a PR 3 compiled engine could disagree with the linear
// tables after an in-place online update).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/model_swap.hpp"
#include "core/online_update.hpp"

namespace iguard::core {
namespace {

/// Three 2-field tables around the same region; table 2 is narrower, so a
/// borderline benign key is majority-benign but misses table 2 (same shape
/// as the online-update tests).
VoteWhitelist make_whitelist() {
  VoteWhitelist wl;
  wl.tree_count = 3;
  for (std::uint32_t hi : {100u, 100u, 80u}) {
    wl.tables.emplace_back(std::vector<rules::RangeRule>{
        {std::vector<rules::FieldRange>{{10, hi}, {10, hi}}, 0, 0}});
  }
  return wl;
}

std::shared_ptr<const ModelBundle> bundle_v(std::uint64_t version) {
  return build_bundle(version, make_whitelist(), rules::Quantizer{16});
}

// --- ModelBundle / build_bundle -------------------------------------------

TEST(ModelBundle, BuildCompilesEnginesInAgreement) {
  const auto b = bundle_v(1);
  EXPECT_EQ(b->version, 1u);
  EXPECT_FALSE(b->has_pl());
  for (std::uint32_t x : {0u, 10u, 50u, 80u, 90u, 100u, 120u}) {
    for (std::uint32_t y : {0u, 50u, 90u, 120u}) {
      const std::uint32_t key[2] = {x, y};
      EXPECT_EQ(b->fl_compiled.classify(key), b->fl.classify(key)) << x << "," << y;
    }
  }
}

TEST(ModelBundle, PlStageCompiledWhenPresent) {
  const auto b = build_bundle(3, make_whitelist(), rules::Quantizer{16}, make_whitelist(),
                              rules::Quantizer{16});
  EXPECT_TRUE(b->has_pl());
  const std::uint32_t key[2] = {50, 50};
  EXPECT_EQ(b->pl_compiled.classify(key), b->pl.classify(key));
}

// --- ModelHandle -----------------------------------------------------------

TEST(ModelHandle, PinReturnsCurrentAndPublishSwaps) {
  ModelHandle h(bundle_v(1));
  const std::size_t r = h.register_reader();
  EXPECT_EQ(h.version(), 1u);
  EXPECT_EQ(h.pin(r)->version, 1u);
  EXPECT_EQ(h.publish(bundle_v(2)), 2u);
  EXPECT_EQ(h.swaps(), 1u);
  EXPECT_EQ(h.pin(r)->version, 2u);
  EXPECT_EQ(h.collect(), 1u);  // reader moved past v1
  EXPECT_EQ(h.retired_pending(), 0u);
}

TEST(ModelHandle, PublishRequiresIncreasingVersion) {
  ModelHandle h(bundle_v(2));
  EXPECT_THROW(h.publish(bundle_v(2)), std::invalid_argument);
  EXPECT_THROW(h.publish(bundle_v(1)), std::invalid_argument);
  EXPECT_THROW(h.publish(nullptr), std::invalid_argument);
}

TEST(ModelHandle, StickyPinKeepsRetiredVersionAlive) {
  ModelHandle h(bundle_v(1));
  const std::size_t r = h.register_reader();
  const ModelBundle* pinned = h.pin(r);
  h.publish(bundle_v(2));
  // The reader has not re-pinned: v1 must survive collect() and stay
  // dereferenceable (this is the hitless-swap guarantee).
  EXPECT_EQ(h.collect(), 0u);
  EXPECT_EQ(h.retired_pending(), 1u);
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(h.pin(r)->version, 2u);
  EXPECT_EQ(h.collect(), 1u);
}

TEST(ModelHandle, QuiesceReleasesThePin) {
  ModelHandle h(bundle_v(1));
  const std::size_t r = h.register_reader();
  h.pin(r);
  h.publish(bundle_v(2));
  h.quiesce(r);
  EXPECT_EQ(h.collect(), 1u);
  // Re-pinning after quiesce is allowed.
  EXPECT_EQ(h.pin(r)->version, 2u);
}

TEST(ModelHandle, ManyReadersEachHoldTheirOwnPin) {
  ModelHandle h(bundle_v(1));
  const std::size_t r0 = h.register_reader();
  const std::size_t r1 = h.register_reader();
  h.pin(r0);
  h.pin(r1);
  h.publish(bundle_v(2));
  h.pin(r0);                   // r0 moves on, r1 still guards v1
  EXPECT_EQ(h.collect(), 0u);
  h.pin(r1);
  EXPECT_EQ(h.collect(), 1u);
}

TEST(ModelHandle, UnchangedPinStillGuardsItsBundle) {
  // pin() skips the hazard-slot store when the slot already holds the
  // current bundle. The skipped store must not weaken the protection: a
  // repeated pin keeps its bundle alive across publish + collect, and a pin
  // that sees a new version moves the slot so the old one is reclaimed.
  ModelHandle h(bundle_v(1));
  const std::size_t r = h.register_reader();
  const ModelBundle* v1 = h.pin(r);
  EXPECT_EQ(h.pin(r), v1);  // unchanged: the fast path
  h.publish(bundle_v(2));
  EXPECT_EQ(h.collect(), 0u);
  EXPECT_EQ(h.retired_pending(), 1u);
  EXPECT_EQ(v1->version, 1u);  // still dereferenceable
  EXPECT_EQ(v1->fl.tree_count, 3u);
  const ModelBundle* v2 = h.pin(r);  // changed: the slot moves to v2
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(h.collect(), 1u);
  EXPECT_EQ(h.pin(r), v2);
  h.publish(bundle_v(3));
  EXPECT_EQ(h.pin(r)->version, 3u);
  EXPECT_EQ(h.collect(), 1u);
  // After quiesce the slot is empty, so the next pin takes the full
  // protocol again and guards the current version.
  h.quiesce(r);
  const ModelBundle* v3 = h.pin(r);
  h.publish(bundle_v(4));
  EXPECT_EQ(h.collect(), 0u);
  EXPECT_EQ(v3->version, 3u);
}

TEST(ModelHandle, ConcurrentReadersNeverSeeAFreedBundle) {
  ModelHandle h(bundle_v(1));
  constexpr int kReaders = 4;
  std::vector<std::size_t> slots;
  for (int i = 0; i < kReaders; ++i) slots.push_back(h.register_reader());
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> max_seen{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const ModelBundle* b = h.pin(slots[i]);
        // Dereference under the pin: versions must be monotone per reader
        // and the tables always consistent with the bundle's version.
        const std::uint64_t v = b->version;
        ASSERT_GE(v, last);
        ASSERT_EQ(b->fl.tree_count, 3u);
        last = v;
        std::uint64_t m = max_seen.load(std::memory_order_relaxed);
        while (v > m && !max_seen.compare_exchange_weak(m, v)) {
        }
      }
      h.quiesce(slots[i]);
    });
  }
  for (std::uint64_t v = 2; v <= 64; ++v) {
    h.publish(bundle_v(v));
    h.collect();
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  while (h.retired_pending() > 0) h.collect();
  EXPECT_EQ(h.version(), 64u);
  EXPECT_GE(max_seen.load(), 2u);  // readers observed at least one swap
}

// --- DriftDetector ---------------------------------------------------------

TEST(DriftDetector, CalibratesThenFiresOnMissRate) {
  DriftConfig cfg;
  cfg.window = 4;
  cfg.baseline_windows = 1;
  cfg.miss_rate_margin = 0.10;
  DriftDetector d(cfg);
  // Baseline window: fully covered traffic.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(d.observe(0.0, true, 0), DriftSignal::kNone);
  }
  EXPECT_TRUE(d.calibrated());
  EXPECT_DOUBLE_EQ(d.baseline_miss_rate(), 0.0);
  // Drifted window: every key misses a third of the tables.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(d.observe(1.0 / 3.0, false, 0), DriftSignal::kNone);
  }
  EXPECT_EQ(d.observe(1.0 / 3.0, false, 0), DriftSignal::kMissRate);
  EXPECT_EQ(d.fires(), 1u);
  EXPECT_DOUBLE_EQ(d.last_window_miss_rate(), 1.0);
}

TEST(DriftDetector, FiresOnVoteShiftWhenMissRateIsStable) {
  DriftConfig cfg;
  cfg.window = 4;
  cfg.vote_shift = 0.08;
  DriftDetector d(cfg);
  // Baseline: all keys miss one of three tables (miss rate 1.0, vote 1/3).
  for (int i = 0; i < 4; ++i) d.observe(1.0 / 3.0, false, 0);
  ASSERT_TRUE(d.calibrated());
  // Vote share shifts to 2/3 while the miss rate stays saturated at 1.0:
  // the miss-rate rule cannot fire (1.0 is not above 1.0 + margin), the
  // score-distribution shift must.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(d.observe(2.0 / 3.0, false, 0), DriftSignal::kNone);
  EXPECT_EQ(d.observe(2.0 / 3.0, false, 0), DriftSignal::kVoteShift);
}

TEST(DriftDetector, FiresOnRejectedByBudgetSlope) {
  DriftConfig cfg;
  cfg.window = 4;
  cfg.rejected_slope = 4;
  DriftDetector d(cfg);
  for (int i = 0; i < 4; ++i) d.observe(0.0, true, 0);  // calibrate
  // Budget-valve pressure: rejected grows by 4 within one window while the
  // whitelist still covers everything it sees.
  d.observe(0.0, true, 1);
  d.observe(0.0, true, 2);
  d.observe(0.0, true, 3);
  EXPECT_EQ(d.observe(0.0, true, 4), DriftSignal::kRejectedSlope);
}

TEST(DriftDetector, ResetRecalibratesAndHonoursCooldown) {
  DriftConfig cfg;
  cfg.window = 2;
  cfg.cooldown_windows = 1;
  cfg.miss_rate_margin = 0.10;
  DriftDetector d(cfg);
  d.reset();  // as the swap loop does after a publish
  // Cooldown window: extreme values must be ignored entirely.
  EXPECT_EQ(d.observe(1.0, false, 0), DriftSignal::kNone);
  EXPECT_EQ(d.observe(1.0, false, 0), DriftSignal::kNone);
  EXPECT_FALSE(d.calibrated());
  // Next window calibrates the baseline (post-swap normal: no misses).
  d.observe(0.0, true, 0);
  d.observe(0.0, true, 0);
  EXPECT_TRUE(d.calibrated());
  // And a drifted window now fires against the fresh baseline.
  d.observe(1.0, false, 0);
  EXPECT_EQ(d.observe(1.0, false, 0), DriftSignal::kMissRate);
}

TEST(DriftDetector, DisabledDetectorNeverFires) {
  DriftConfig cfg;
  cfg.enabled = false;
  cfg.window = 1;
  DriftDetector d(cfg);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(d.observe(1.0, false, 100), DriftSignal::kNone);
  EXPECT_EQ(d.windows_closed(), 0u);
}

// --- the stale compiled-whitelist skew (regression) ------------------------

TEST(ModelSwapRegression, InPlaceUpdateSkewsCompiledEngineVersionedSwapDoesNot) {
  // Single-tree whitelist: [10,80]^2. The borderline benign key {90,90}
  // misses it until an online extension stretches the rule.
  VoteWhitelist wl;
  wl.tree_count = 1;
  wl.tables.emplace_back(std::vector<rules::RangeRule>{
      {std::vector<rules::FieldRange>{{10, 80}, {10, 80}}, 0, 0}});
  const std::uint32_t key[2] = {90, 90};

  // Pre-fix deployment shape: compile once (as Pipeline construction did),
  // then let the updater mutate the linear tables in place. The compiled
  // engine is a snapshot — it cannot observe the mutation, and the two
  // engines now disagree on the extended key. This is the bug.
  CompiledVoteWhitelist compiled_once(wl);
  WhitelistUpdater upd(wl, {.max_extension_per_field = 15, .max_updates = 100});
  EXPECT_EQ(upd.observe_benign(key), 1u);
  EXPECT_EQ(wl.classify(key), 0);             // linear tables learned the key
  EXPECT_EQ(compiled_once.classify(key), 1);  // stale snapshot still rejects it

  // Fixed path: updates land in a staging copy, and a *versioned* bundle is
  // built from it — tables and compiled engine are rebuilt together, so no
  // observer can ever see them disagree.
  ModelHandle h(build_bundle(1, VoteWhitelist{wl.tables, 1}, rules::Quantizer{16}));
  const std::size_t r = h.register_reader();
  VoteWhitelist staging = h.current()->fl;
  RebuildInput in;
  in.current = h.current();
  in.staging_fl = &staging;
  in.new_version = 2;
  h.publish(recompile_rebuilder()(in));
  const ModelBundle* b = h.pin(r);
  EXPECT_EQ(b->version, 2u);
  EXPECT_EQ(b->fl.classify(key), b->fl_compiled.classify(key));
  EXPECT_EQ(b->fl_compiled.classify(key), 0);
}

// --- rebuilders ------------------------------------------------------------

TEST(Rebuilders, RecompileAdoptsStagingAndCarriesQuantizers) {
  ModelHandle h(bundle_v(1));
  VoteWhitelist staging = h.current()->fl;
  WhitelistUpdater upd(staging, {.max_extension_per_field = 15, .max_updates = 100});
  const std::uint32_t key[2] = {90, 90};
  upd.observe_benign(key);  // stretches staging table 2 to cover {90,90}
  RebuildInput in;
  in.current = h.current();
  in.staging_fl = &staging;
  in.new_version = 2;
  const auto b = recompile_rebuilder()(in);
  EXPECT_EQ(b->version, 2u);
  EXPECT_EQ(b->fl_compiled.classify(key), 0);
  EXPECT_EQ(b->fl.classify(key), 0);
  EXPECT_EQ(b->fl_q.field_count(), in.current->fl_q.field_count());
}

TEST(Rebuilders, DistillFallsBackToRecompileBelowMinRows) {
  AeEnsemble teacher;  // never consulted on the fallback path
  ModelHandle h(bundle_v(1));
  VoteWhitelist staging = h.current()->fl;
  WhitelistUpdater upd(staging, {.max_extension_per_field = 15, .max_updates = 100});
  const std::uint32_t key[2] = {90, 90};
  upd.observe_benign(key);
  ml::Matrix recent(0, 2);  // nothing retained
  RebuildInput in;
  in.current = h.current();
  in.staging_fl = &staging;
  in.recent = &recent;
  in.new_version = 2;
  const auto b = distill_rebuilder(teacher, {}, {}, 64, 7)(in);
  EXPECT_EQ(b->version, 2u);
  EXPECT_EQ(b->fl_compiled.classify(key), 0);  // staging extension adopted
}

TEST(Rebuilders, DistillRefitsForestOnRecentRowsDeterministically) {
  // 2-D benign manifold (y = x); a light AE teacher suffices — the point
  // here is the plumbing (fit under the deployed quantizer, robust clip to
  // the recent rows, per-tree compile), not detection quality.
  ml::Rng rng(17);
  ml::Matrix recent(0, 2);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.normal(0.0, 1.0);
    const double row[2] = {x, x + rng.normal(0.0, 0.1)};
    recent.push_row(row);
  }
  AeEnsemble teacher;
  AeEnsembleConfig tc;
  tc.ensemble_size = 1;
  tc.base.encoder_hidden = {4, 1};
  tc.base.epochs = 20;
  teacher.fit(recent, tc, rng);

  rules::Quantizer q{16};
  ml::Matrix span(2, 2);
  span(0, 0) = -6.0; span(0, 1) = -6.0;
  span(1, 0) = 6.0; span(1, 1) = 6.0;
  q.fit(span);
  VoteWhitelist initial;
  initial.tree_count = 1;
  initial.tables.emplace_back(std::vector<rules::RangeRule>{
      {std::vector<rules::FieldRange>{{0, q.domain_max()}, {0, q.domain_max()}}, 0, 0}});
  ModelHandle h(build_bundle(1, std::move(initial), q));
  VoteWhitelist staging = h.current()->fl;
  RebuildInput in;
  in.current = h.current();
  in.staging_fl = &staging;
  in.recent = &recent;
  in.new_version = 2;
  GuidedForestConfig fc;
  fc.num_trees = 3;
  fc.subsample = 128;
  fc.augment = 32;
  auto rebuild = distill_rebuilder(teacher, fc, {}, 64, 7);
  const auto a = rebuild(in);
  const auto b = rebuild(in);
  ASSERT_EQ(a->version, 2u);
  ASSERT_EQ(a->fl.tables.size(), 3u);  // genuinely refit, not the fallback
  // Bit-identical across invocations: the seed + version fix the RNG.
  ASSERT_EQ(b->fl.tables.size(), a->fl.tables.size());
  for (std::size_t t = 0; t < a->fl.tables.size(); ++t) {
    EXPECT_EQ(b->fl.tables[t].rules(), a->fl.tables[t].rules()) << "table " << t;
  }
  // Compiled engine agrees with the refit tables everywhere we probe.
  ml::Rng probe(99);
  for (int i = 0; i < 200; ++i) {
    const double x[2] = {probe.uniform(-6.0, 6.0), probe.uniform(-6.0, 6.0)};
    const auto key = q.quantize(x);
    EXPECT_EQ(a->fl_compiled.classify(key), a->fl.classify(key));
  }
}

}  // namespace
}  // namespace iguard::core
