// The switch-side half of the adaptive model-swap loop (DESIGN.md §4e;
// ROADMAP item 1). Delivered benign mirrors feed three consumers in one
// pass: the online whitelist updater (staging extensions, never the live
// tables), the windowed drift detector, and a bounded ring of recent benign
// feature rows for re-distillation. When enough extensions accumulate — or
// a drift signal fires — the loop builds the next immutable ModelBundle off
// the hot path, schedules its publication swap_latency_s later on the
// controller's event clock (deferred past any crash window: a down
// controller cannot program tables), and the pipeline picks the new version
// up with one pin() at the next packet. Everything is event-counted and
// seeded, so drift-triggered swaps replay bit-identically at any shard
// count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/model_swap.hpp"
#include "core/online_update.hpp"
#include "ml/matrix.hpp"
#include "obs/metrics.hpp"
#include "switchsim/faults.hpp"

namespace iguard::switchsim {

struct SwapConfig {
  /// Master switch. Off by default: the pipeline then emits no mirrors and
  /// registers no swap instruments, keeping default-path runs byte-identical
  /// to earlier versions.
  bool enabled = false;
  core::OnlineUpdateConfig update{};
  core::DriftConfig drift{};
  /// Publish an incremental (recompile) version once this many online
  /// extensions have accumulated since the last publish; 0 = only drift
  /// signals trigger publishes.
  std::size_t publish_after_extensions = 64;
  /// Simulated build+program time: trigger -> new version visible. Models
  /// the background rebuild without needing a wall clock.
  double swap_latency_s = 0.0;
  /// Benign FL feature rows retained for re-distillation (ring buffer).
  std::size_t recent_capacity = 2048;
  /// Produces drift-triggered versions; empty => recompile_rebuilder().
  core::ModelRebuilder rebuilder;
};

/// Per-run swap accounting, merged field-wise across shards like FaultStats.
struct SwapStats {
  std::size_t mirrors_applied = 0;       // delivered mirrors consumed
  std::size_t extensions_applied = 0;    // staged rule stretches
  std::size_t rejected_by_budget = 0;    // admissible but refused (valve shut)
  std::size_t drift_fires = 0;
  std::size_t drift_miss_rate = 0;
  std::size_t drift_vote_shift = 0;
  std::size_t drift_rejected_slope = 0;
  std::size_t rebuilds = 0;              // drift-triggered rebuilder runs
  std::size_t operator_requests = 0;     // request_publish calls (config reload)
  std::size_t incremental_publishes = 0; // extension-threshold recompiles
  std::size_t publishes = 0;             // versions made live (all kinds)
  std::size_t publishes_deferred_by_crash = 0;
  std::size_t coalesced_triggers = 0;    // absorbed while one was in flight
  std::size_t bundles_retired = 0;       // reclaimed after last reader moved on
  std::uint64_t final_version = 0;       // live version at end of run (0 = loop off)

  bool operator==(const SwapStats&) const = default;
};

/// Owns the ModelHandle, the staging whitelist, the drift detector, and the
/// single in-flight pending publish for one pipeline. Implements
/// WhitelistUpdateSink so the controller can hand it delivered mirrors on
/// the event clock.
class SwapLoop final : public WhitelistUpdateSink {
 public:
  SwapLoop(const SwapConfig& cfg, std::shared_ptr<const core::ModelBundle> initial,
           Controller& ctl, obs::Registry* metrics, const std::string& metrics_prefix);

  /// Pin the current bundle without advancing anything (construction time).
  const core::ModelBundle* pin_current();

  /// Hot path, once per packet: make a due pending publish live, then pin.
  /// Allocation-free when nothing is due (two atomic loads and no store
  /// while the pinned version is current).
  const core::ModelBundle* advance_and_pin(double now_ts_s);

  /// WhitelistUpdateSink: one delivered benign mirror (event-clocked).
  void on_benign_mirror(const BenignMirror& m, double deliver_ts_s) override;

  /// Operator-triggered rebuild+publish (config reload, SIGHUP): stage the
  /// next version through the same pending-publish path a drift fire takes —
  /// built by the configured rebuilder, due swap_latency_s after `ts_s` on
  /// the event clock, deferred past crash windows, coalesced if a publish is
  /// already in flight. The swap stays hitless: in-flight packets keep their
  /// pinned bundle, and the pipeline picks the new version up at its next
  /// pin.
  void request_publish(double ts_s);

  /// End-of-run drain: publish anything still pending (its due time has
  /// arrived from the run's perspective), release the pin, reclaim retired
  /// versions.
  void finish();

  SwapStats stats() const;
  const core::ModelHandle& handle() const { return handle_; }
  const core::VoteWhitelist& staging_fl() const { return staging_fl_; }
  const core::DriftDetector& drift() const { return drift_; }

 private:
  void trigger_publish(bool drift_triggered, double ts_s);
  void on_published();

  SwapConfig cfg_;
  Controller* ctl_;
  core::ModelHandle handle_;
  std::size_t reader_;
  /// Live tables are immutable; online extensions land here and reach the
  /// data plane only via the next published version.
  core::VoteWhitelist staging_fl_;
  core::WhitelistUpdater updater_;
  core::DriftDetector drift_;
  /// Ring of recent benign FL rows (physical order; content is a
  /// deterministic function of the mirror stream).
  ml::Matrix recent_;
  std::size_t recent_rows_ = 0;
  std::size_t recent_next_ = 0;
  std::size_t extensions_at_last_publish_ = 0;
  std::uint64_t next_version_;
  struct Pending {
    std::shared_ptr<const core::ModelBundle> bundle;
    double due_ts = 0.0;
    bool drift_triggered = false;
  };
  std::optional<Pending> pending_;
  bool needs_collect_ = false;
  SwapStats stats_;
  // Last updater totals forwarded to the monotone obs counters.
  std::size_t obs_extensions_seen_ = 0;
  std::size_t obs_rejected_seen_ = 0;
  struct Obs {
    obs::Gauge version;
    obs::Counter publishes;
    obs::Counter drift_fires;
    obs::Counter extensions;
    obs::Counter rejected;
    obs::Counter mirrors;
    obs::Series miss_rate;  // sampled once per drift window
  } obs_;
};

}  // namespace iguard::switchsim
