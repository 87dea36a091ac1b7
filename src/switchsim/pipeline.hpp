// Behavioural model of iGuard's data plane (Fig. 4): per packet, the
// pipeline consults the blacklist, the double-hashed flow storage, and the
// whitelist rule tables, and takes one of the six execution paths the paper
// colour-codes. The controller is asynchronous and event-clocked (see
// faults.hpp): digests enter a bounded channel stamped with the packet's
// timestamp, installs land at digest_ts + control_latency, and a seeded
// fault injector can degrade the channel. The default ControlPlaneConfig
// (zero latency, no faults) reproduces the old lockstep model bit for bit.
//
//   red    — 5-tuple blacklisted: drop immediately.
//   brown  — tracked flow, packets 1..n-1, no timeout: update registers,
//            verdict from the PL (early-packet) whitelist.
//   blue   — n-th packet or idle timeout: finalise FL features, match the
//            FL whitelist, store the flow label, digest to the controller,
//            clear feature registers, mirror to loopback.
//   orange — both hash ways occupied by other flows: if the resident is
//            already classified, evict and re-initialise with this packet;
//            either way this packet gets a PL verdict.
//   purple — flow label already 0/1: early per-packet decision.
//   green  — the loopback-mirrored copy (simulated synchronously when blue
//            or orange mirror; counted so path statistics match Fig. 4).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/whitelist.hpp"
#include "obs/metrics.hpp"
#include "rules/quantize.hpp"
#include "switchsim/faults.hpp"
#include "switchsim/registers.hpp"
#include "switchsim/swap_loop.hpp"
#include "switchsim/tables.hpp"

namespace iguard::switchsim {

/// Rule tables + quantisers a trained model deploys onto the switch. Each
/// whitelist is a per-tree table set with a match-count vote (how forest
/// models fit RMT hardware; see core::VoteWhitelist).
struct DeployedModel {
  const core::VoteWhitelist* fl_tables = nullptr;
  const rules::Quantizer* fl_quantizer = nullptr;  // over the 13 FL features
  const core::VoteWhitelist* pl_tables = nullptr;  // optional early-packet rules
  const rules::Quantizer* pl_quantizer = nullptr;
  /// Optional pre-compiled interval-bitmap engines for the two whitelists.
  /// Compilation is a control-plane operation (like TCAM programming): doing
  /// it once here and sharing the read-only result lets sharded replay spin
  /// up K pipelines without K redundant compilations. When null, each
  /// Pipeline compiles its own copy.
  const core::CompiledVoteWhitelist* fl_compiled = nullptr;
  const core::CompiledVoteWhitelist* pl_compiled = nullptr;
};

struct PipelineConfig {
  std::size_t packet_threshold_n = 32;  // the paper's n
  double idle_timeout_delta = 10.0;     // the paper's delta, seconds
  std::size_t flow_slots = 4096;        // per hash table
  std::size_t blacklist_capacity = 4096;
  EvictionPolicy eviction = EvictionPolicy::kFifo;
  /// Record per-packet pred/truth vectors in SimStats. The confusion
  /// counters (tp/fp/tn/fn) accumulate either way; turning this off keeps
  /// a 100M-packet replay from holding ~200 MB of per-packet labels.
  bool record_labels = true;
  /// Control-channel model; defaults are lockstep-equivalent (zero install
  /// latency, unbounded channel, every fault disabled).
  ControlPlaneConfig control{};
  /// Optional observability sink (DESIGN.md §4d). When set, the pipeline
  /// registers per-path packet counters, flow-store/blacklist occupancy
  /// gauges, eviction/leak counters and control-plane instruments, all
  /// updated on every packet, plus per-path process() latency histograms
  /// (under "timing.") that only every Pipeline::kLatencySampleEvery-th
  /// packet records into: their .count counts samples, not packets. All of
  /// it is allocation-free on the hot path. The caller owns the registry;
  /// it must outlive the pipeline.
  obs::Registry* metrics = nullptr;
  /// Namespace prefix for this pipeline's instruments; sharded replay
  /// rewrites it per shard ("pipeline.shard3") so concurrent pipelines
  /// never share an instrument and non-timing keys stay deterministic.
  std::string metrics_prefix = "pipeline";
  /// Adaptive model-swap loop (swap_loop.hpp). Disabled by default; when
  /// enabled the deployed model is snapshotted into version 1 of a
  /// core::ModelHandle, benign FL mirrors are delivered to the loop through
  /// the control channel, and published versions are picked up hitlessly
  /// with one pin() per packet.
  SwapConfig swap{};
};

/// Empty string when `cfg` is well-formed, otherwise "field: problem" for
/// the first violated invariant: 1 <= flow_slots <= 2^24
/// (FlowStore::kMaxSlotsPerTable), blacklist_capacity <= 2^24
/// (BlacklistTable::kMaxCapacity), and idle_timeout_delta finite with
/// delta * 1e6 below 2^64 (it is converted to integer µs; a value <= 0
/// means no idle timeout). Pipeline's constructor throws ConfigError on a
/// non-empty result.
std::string validate_config(const PipelineConfig& cfg);

enum class Path : std::size_t { kRed = 0, kBrown, kBlue, kOrange, kPurple, kGreen };

struct SimStats {
  /// Execution path taken by each packet; sums to `packets` exactly (the
  /// green loopback mirror is a copy of a blue/orange packet, so it is
  /// tracked in `green_mirrors` instead of here and path_count[kGreen]
  /// stays 0).
  std::array<std::size_t, 6> path_count{};
  /// Loopback mirror copies generated by blue finalisations and orange
  /// slot reclaims (Fig. 4's green path).
  std::size_t green_mirrors = 0;
  std::size_t packets = 0;
  std::size_t dropped = 0;
  std::size_t blacklist_hits = 0;
  std::size_t collisions = 0;
  std::size_t flows_classified = 0;
  std::size_t benign_feature_mirrors = 0;  // egress mirror for rule updates
  /// Model-swap accounting (swap_loop.hpp); all-zero when the loop is off.
  SwapStats swap;
  /// Control-plane degradation accounting (faults.hpp). Channel-side
  /// counters are copied from the controller at end of run(); the
  /// leaked_packets field accumulates per packet during process().
  FaultStats faults;
  /// Per-packet confusion counts (verdict vs ground truth, malicious = 1),
  /// always accumulated — the allocation-free alternative to pred/truth for
  /// benches that only need the confusion matrix.
  std::size_t tp = 0, fp = 0, tn = 0, fn = 0;
  // Per-packet verdict (1 = dropped/malicious) and ground truth, for the
  // paper's per-packet detection metrics. Populated only when
  // PipelineConfig::record_labels is on.
  std::vector<std::uint8_t> pred;
  std::vector<std::uint8_t> truth;

  std::size_t path(Path p) const { return path_count[static_cast<std::size_t>(p)]; }

  /// Member-wise equality — what the fleet N=1 parity gate and the
  /// determinism property tests compare (pred/truth included).
  bool operator==(const SimStats&) const = default;
};

class Pipeline {
 public:
  /// process() latency is timed on one packet in this many: the packets
  /// whose index in this pipeline's stream is 0, 64, 128, ... read the
  /// steady clock at entry and exit and record into
  /// timing.<prefix>.process_ns.<path>. The rest read no clock, so the
  /// timer does not dominate the red/purple fast paths it times, and which
  /// packets are sampled is a pure function of each shard's stream.
  static constexpr std::uint64_t kLatencySampleEvery = 64;

  /// Throws ConfigError on an invalid `cfg` (validate_config), and
  /// std::invalid_argument when the model carries no FL rules.
  Pipeline(const PipelineConfig& cfg, const DeployedModel& model);

  /// Process one packet; returns the verdict (1 = drop as malicious). The
  /// controller's event clock is advanced to p.ts first, so installs due by
  /// then are visible to this packet's blacklist lookup.
  int process(const traffic::Packet& p, SimStats& stats);

  /// Replay a whole trace; drains the control channel at the end so the
  /// controller counters cover every digest the trace produced.
  SimStats run(const traffic::Trace& trace);

  /// End-of-stream epilogue for callers that feed packets incrementally
  /// (the serving daemon) instead of through run(): drain the control
  /// plane, make any pending model publish live, rebind the final bundle,
  /// and fold the controller/swap accounting into `stats` (preserving the
  /// per-packet leaked_packets the caller accumulated). run() itself ends
  /// with exactly this call.
  void finish_stream(SimStats& stats);

  /// Operator-triggered model rebuild+publish (config reload): stages the
  /// next bundle version through the hitless swap path at event time
  /// `ts_s`. Returns false when the swap loop is disabled.
  bool request_model_publish(double ts_s);

  /// Drain all in-flight control-plane work (see Controller::flush).
  void flush_control_plane() { controller_.flush(); }

  const Controller& controller() const { return controller_; }
  const BlacklistTable& blacklist() const { return blacklist_; }
  const FlowStore& flow_store() const { return store_; }
  /// Null unless PipelineConfig::swap.enabled.
  const SwapLoop* swap_loop() const { return swap_.get(); }

 private:
  int classify_pl(const traffic::Packet& p) const;
  void finalize_flow(const traffic::Packet& p, std::uint64_t flow_key, IntFlowState& st,
                     SimStats& stats);
  /// Re-target the model/engine pointers at a newly pinned bundle version.
  void bind_bundle(const core::ModelBundle* b);

  /// Handles into PipelineConfig::metrics; all default-inactive (no-op)
  /// when no registry is attached. Registered once at construction.
  struct Obs {
    bool enabled = false;
    std::array<obs::Counter, 6> path_packets;     // per Fig. 4 path
    std::array<obs::Histogram, 6> path_ns;        // timing.<prefix>.process_ns.*, sampled
    obs::Gauge flow_occupancy;                    // slots claimed so far
    obs::Gauge blacklist_occupancy;
    obs::Counter blacklist_evictions;
    obs::Counter leaked_packets;
  };

  PipelineConfig cfg_;
  DeployedModel model_;
  /// Interval-bitmap engines every lookup goes through. The pointers refer
  /// to the bound bundle's engines, the model's shared pre-compiled tables,
  /// or the locally-owned compilations below (built at construction when
  /// the model does not share any).
  core::CompiledVoteWhitelist fl_owned_, pl_owned_;
  const core::CompiledVoteWhitelist* fl_engine_ = nullptr;
  const core::CompiledVoteWhitelist* pl_engine_ = nullptr;
  FlowStore store_;
  BlacklistTable blacklist_;
  Controller controller_;
  /// Present iff cfg_.swap.enabled; owns the versioned model handle. The
  /// currently bound bundle is tracked so process() rebinds pointers only
  /// when a pin returns a new version.
  std::unique_ptr<SwapLoop> swap_;
  const core::ModelBundle* bound_ = nullptr;
  /// Bi-hash keys of flows the data plane has classified malicious, with
  /// which leaked packets (admitted after classification) are detected.
  FlowKeySet malicious_classified_;
  Obs obs_;
  std::size_t slots_claimed_ = 0;      // incremental flow-store occupancy
  std::size_t last_evictions_ = 0;     // blacklist eviction delta tracking
  std::uint64_t packet_index_ = 0;     // latency-sampling clock (obs on only)
};

}  // namespace iguard::switchsim
