// Versioned, hitless model swap (DESIGN.md §4e; ROADMAP item 1). The data
// plane must never observe a half-updated model: PR 3 made the whitelist
// match engine a compiled artifact (core::CompiledVoteWhitelist), and an
// in-place rule mutation cannot reach it — the source of the stale
// compiled-whitelist skew this subsystem removes. Instead of mutating live
// tables, the control plane builds a fresh immutable ModelBundle (tables +
// quantizers + pre-compiled engines) off the hot path, publishes it through
// an RCU-style ModelHandle with one atomic pointer store, and retires the
// previous version once no reader can still be using it. Readers pin the
// current bundle with a hazard-slot protocol that performs no heap
// allocation and no reference-count traffic — cheap enough to run per
// packet.
//
// The companion DriftDetector turns the online-update telemetry
// (whitelist-miss rate, malicious-vote share, rejected-by-budget slope)
// into windowed, event-counted drift signals: deterministic functions of
// the observation stream, never of wall clock, so drift-triggered swaps
// replay bit-identically. CyberSentinel's distillation-based switch model
// refresh (PAPERS.md) is the reference loop: detect drift, re-distil a
// guided forest on recent epochs, swap without dropping a packet.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/ae_ensemble.hpp"
#include "core/guided_iforest.hpp"
#include "core/whitelist.hpp"
#include "rules/quantize.hpp"

namespace iguard::core {

/// One immutable deployed-model version: everything a pipeline needs to
/// classify packets, owned by value so the bundle's lifetime alone keeps
/// every lookup structure valid. Compilation of the interval-bitmap engines
/// happens in build_bundle (a control-plane operation, like TCAM
/// programming) — never on the packet path.
struct ModelBundle {
  std::uint64_t version = 0;
  VoteWhitelist fl;
  VoteWhitelist pl;  // empty tables => deployment has no early-packet stage
  rules::Quantizer fl_q{16};
  rules::Quantizer pl_q{16};
  CompiledVoteWhitelist fl_compiled;
  CompiledVoteWhitelist pl_compiled;

  bool has_pl() const { return !pl.tables.empty(); }
};

/// Assemble + compile a bundle. The whitelists are taken by value (the
/// bundle must own its rules: a published version may outlive whatever
/// staging copy produced it); both compiled engines are built here.
std::shared_ptr<const ModelBundle> build_bundle(std::uint64_t version, VoteWhitelist fl,
                                                rules::Quantizer fl_q, VoteWhitelist pl = {},
                                                rules::Quantizer pl_q = rules::Quantizer{16});

/// Atomic publication point for ModelBundles — the epoch/RCU handle sharded
/// pipelines read per packet. Readers register once (control-plane time),
/// then pin() per packet: an acquire load of the current pointer, plus one
/// hazard-slot store only when that pointer differs from the one the slot
/// already guards; allocation-free and lock-free. Writers publish() a new
/// bundle with a single pointer swap and later collect() versions no pinned
/// reader can still reference. Pins are sticky: a slot guards the version
/// it last pinned until the reader pins a newer one or quiesces, which is
/// exactly the lifetime a pipeline needs between packets.
class ModelHandle {
 public:
  static constexpr std::size_t kMaxReaders = 64;

  explicit ModelHandle(std::shared_ptr<const ModelBundle> initial);

  /// Claim a reader slot (throws past kMaxReaders). Not hot-path.
  std::size_t register_reader();

  /// Pin and return the current bundle for `reader`. The returned pointer
  /// stays valid until this reader's next pin()/quiesce(). No allocation.
  const ModelBundle* pin(std::size_t reader);

  /// Drop `reader`'s pin (e.g. end of replay); the reader may re-pin later.
  void quiesce(std::size_t reader);

  /// Make `next` the live version (its version must exceed the current
  /// one); the old version moves to the retired list until collect() proves
  /// every reader has moved past it. Returns the published version.
  std::uint64_t publish(std::shared_ptr<const ModelBundle> next);

  /// Free retired bundles older than every pinned version; returns how many
  /// were reclaimed. Safe to call from the publisher at any time.
  std::size_t collect();

  const ModelBundle* current() const { return cur_.load(std::memory_order_acquire); }
  std::uint64_t version() const { return current()->version; }
  std::uint64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }
  std::size_t readers() const;
  /// Retired-but-not-yet-reclaimed versions (0 once every swap has drained).
  std::size_t retired_pending() const;

 private:
  std::atomic<const ModelBundle*> cur_;
  std::atomic<std::uint64_t> swaps_{0};
  /// Hazard slots: the bundle each registered reader may still dereference
  /// (nullptr = quiescent). Pointers, not versions: the protocol must never
  /// dereference a candidate bundle before the confirm load proves it is
  /// still live.
  std::vector<std::unique_ptr<std::atomic<const ModelBundle*>>> slots_;
  mutable std::mutex mu_;  // guards slots_ growth, live_, retired_
  std::shared_ptr<const ModelBundle> live_;
  std::vector<std::shared_ptr<const ModelBundle>> retired_;
};

/// Fleet-side model distribution (DESIGN.md §4f): compiling a model version
/// is a control-plane cost paid once per *version*, never once per device.
/// get_or_build() returns the cached bundle for `version`, invoking the
/// builder only on the first request; every device in the fleet then shares
/// the same immutable compiled tables (a ModelBundle never mutates after
/// build_bundle, so cross-thread sharing is safe). The compile/distribution
/// counters let tests and benches assert the once-per-version property.
class ModelDistributor {
 public:
  using Builder = std::function<std::shared_ptr<const ModelBundle>()>;

  /// Cached bundle for `version`, building (and caching) on first request.
  /// Throws std::invalid_argument if the builder returns null or a bundle
  /// whose version does not match the requested one.
  std::shared_ptr<const ModelBundle> get_or_build(std::uint64_t version, const Builder& build);

  std::size_t compiles() const;       // cache misses: builder invocations
  std::size_t distributions() const;  // total get_or_build calls
  std::size_t versions_cached() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const ModelBundle>>> cache_;
  std::size_t compiles_ = 0;
  std::size_t distributions_ = 0;
};

/// Which drift signal fired (kNone = window closed quietly).
enum class DriftSignal { kNone, kMissRate, kVoteShift, kRejectedSlope };

struct DriftConfig {
  bool enabled = true;
  /// Benign observations per window. Windows are event-counted, never
  /// wall-clocked, so detection is a pure function of the mirror stream.
  std::size_t window = 256;
  /// Windows averaged into the baseline after (re)calibration.
  std::size_t baseline_windows = 1;
  /// Windows ignored right after reset() (the post-swap settling period).
  std::size_t cooldown_windows = 0;
  /// Fire kMissRate when a window's whitelist-miss rate (fraction of benign
  /// keys at least one table missed) exceeds baseline + margin.
  double miss_rate_margin = 0.10;
  /// Fire kVoteShift when the window's mean malicious-vote share drifts
  /// this far from the baseline mean (score-distribution shift).
  double vote_shift = 0.08;
  /// Fire kRejectedSlope when rejected-by-budget grows at least this much
  /// within one window (the updater's safety valve is visibly closing).
  std::size_t rejected_slope = 32;
};

/// Windowed drift detection over the online-update telemetry. Feed one
/// observation per delivered benign mirror; at each window boundary the
/// detector compares the window against the calibrated baseline and reports
/// the strongest signal. After a swap, call reset() so the fresh model
/// re-calibrates instead of being judged against its predecessor's
/// baseline.
class DriftDetector {
 public:
  explicit DriftDetector(DriftConfig cfg = {}) : cfg_(cfg) {}

  /// `miss_fraction`: fraction of whitelist tables that missed this benign
  /// key (the malicious-vote share). `fully_covered`: every table matched.
  /// `rejected_total`: the updater's cumulative rejected_by_budget().
  /// Returns a signal only on the observation that closes a window.
  DriftSignal observe(double miss_fraction, bool fully_covered, std::size_t rejected_total);

  /// Recalibrate from scratch (new model version just went live).
  void reset();

  std::size_t windows_closed() const { return windows_closed_; }
  std::size_t fires() const { return fires_; }
  bool calibrated() const { return baseline_ready_; }
  double baseline_miss_rate() const { return baseline_miss_rate_; }
  double baseline_vote_share() const { return baseline_vote_; }
  double last_window_miss_rate() const { return last_miss_rate_; }
  double last_window_vote_share() const { return last_vote_; }
  const DriftConfig& config() const { return cfg_; }

 private:
  DriftConfig cfg_;
  // Current window accumulators.
  std::size_t obs_in_window_ = 0;
  std::size_t misses_in_window_ = 0;
  double vote_sum_ = 0.0;
  std::size_t rejected_at_window_start_ = 0;
  bool have_rejected_start_ = false;
  // Baseline calibration.
  bool baseline_ready_ = false;
  std::size_t baseline_accum_windows_ = 0;
  double baseline_miss_accum_ = 0.0;
  double baseline_vote_accum_ = 0.0;
  double baseline_miss_rate_ = 0.0;
  double baseline_vote_ = 0.0;
  std::size_t cooldown_left_ = 0;
  // Telemetry.
  std::size_t windows_closed_ = 0;
  std::size_t fires_ = 0;
  double last_miss_rate_ = 0.0;
  double last_vote_ = 0.0;
};

/// Everything a rebuild gets to look at. `staging_fl` is the current FL
/// whitelist plus every online extension applied since the last publish;
/// `recent` holds the most recent benign FL feature rows (bounded ring,
/// oldest-first; may be empty when the deployment does not retain rows).
struct RebuildInput {
  const ModelBundle* current = nullptr;
  const VoteWhitelist* staging_fl = nullptr;
  const ml::Matrix* recent = nullptr;
  std::uint64_t new_version = 0;
};

/// Produces the next model version. Must be deterministic in its inputs —
/// swap replay determinism rests on it.
using ModelRebuilder = std::function<std::shared_ptr<const ModelBundle>(const RebuildInput&)>;

/// Cheap default: adopt the staging whitelist (online extensions included)
/// and recompile both engines. Quantizers and the PL stage carry over.
ModelRebuilder recompile_rebuilder();

/// CyberSentinel-style refresh: re-distil a fresh guided forest on the
/// recent benign rows with the retained AE teacher (forest growth and leaf
/// distillation run on the PR 1 thread pool via cfg.num_threads), compile
/// it per-tree under the *deployed* quantizer — the feature contract the
/// switch registers already implement — and clip to the recent rows'
/// robust support. Falls back to recompile_rebuilder() semantics when
/// fewer than `min_rows` rows were retained. The teacher must outlive the
/// returned rebuilder. `seed` fixes the growth RNG so rebuilds replay
/// bit-identically.
ModelRebuilder distill_rebuilder(const AeEnsemble& teacher, GuidedForestConfig forest_cfg,
                                 WhitelistConfig whitelist_cfg, std::size_t min_rows,
                                 std::uint64_t seed);

}  // namespace iguard::core
