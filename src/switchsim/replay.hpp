// Sharded parallel trace replay — the software twin of Tofino's independent
// pipes. The trace is partitioned by a bidirectional hash of the canonical
// 5-tuple, so both directions of a connection (and every packet of a flow)
// land in the same shard; each shard then runs its own complete Pipeline
// (FlowStore, blacklist shard, controller) over its sub-trace on the
// ml/parallel.hpp thread pool. Because flows never cross shards, per-flow
// state is exact, and because each shard's replay is sequential and the
// merge order is fixed by shard index, the merged SimStats are bit-identical
// at any thread count. Note the K-shard *semantics* differ from a single
// K-times-larger pipeline exactly the way K hardware pipes differ from one:
// hash collisions, blacklist evictions, and channel backpressure are per
// shard. For a fixed K the result is deterministic; tests assert it equals
// the sum of the K per-shard pipelines run sequentially.
#pragma once

#include <cstdint>
#include <vector>

#include "switchsim/pipeline.hpp"

namespace iguard::switchsim {

struct ReplayConfig {
  std::size_t shards = 1;
  /// Worker threads for the shard loop; 0 = one per shard (capped at the
  /// hardware concurrency). The result never depends on this value.
  std::size_t num_threads = 0;
  /// Seed of the shard-partition hash. Independent of the FlowStore /
  /// blacklist seeds so sharding never correlates with slot placement.
  std::uint64_t shard_seed = 0x51A2D0ull;
  /// Capture every digest at the channel mouth into
  /// ShardedReplayResult::digests (time-ordered across shards). The fleet
  /// simulator feeds this stream to its central controller. Capturing does
  /// not perturb the replay: the tap records before any fault decision.
  bool capture_digests = false;
};

/// Empty string when well-formed, otherwise the first violated invariant
/// (zero shards, zero partition seed space — shards must be >= 1). Checked
/// (throwing ConfigError) by replay_sharded and shard_trace.
std::string validate_config(const ReplayConfig& cfg);

/// Shard owning a 5-tuple: bihash(ft, seed) mod shards, by mask when
/// shards is a power of two (traffic::hash_slot). Direction-invariant: both
/// directions of a connection map to the same shard (bihash is
/// order-independent). Inline: the daemon routes every packet through it.
inline std::size_t shard_of(const traffic::FiveTuple& ft, std::size_t shards,
                            std::uint64_t seed = ReplayConfig{}.shard_seed) {
  return shards <= 1 ? 0 : traffic::hash_slot(traffic::bihash(ft, seed), shards);
}

/// Partition a trace into `cfg.shards` flow-disjoint sub-traces, preserving
/// packet order within each shard.
std::vector<traffic::Trace> shard_trace(const traffic::Trace& trace, const ReplayConfig& cfg);

/// Field-wise sum of per-shard stats. pred/truth are concatenated in shard
/// order here; replay_sharded instead re-interleaves them into original
/// trace order (see its doc).
SimStats merge_stats(const std::vector<SimStats>& parts);

struct ShardedReplayResult {
  /// Merged stats. Counter fields are per-shard sums; when the pipeline
  /// records labels, pred/truth are re-interleaved into the original trace's
  /// packet order so downstream per-packet metrics are shard-agnostic.
  SimStats stats;
  std::vector<SimStats> per_shard;  // shard-indexed
  /// Channel-mouth digest stream, merged across shards into nondecreasing
  /// timestamp order (ties resolve by shard index, so the merge is
  /// deterministic). Populated only when ReplayConfig::capture_digests.
  std::vector<TimedDigest> digests;
};

/// Replay `trace` through `cfg.shards` independent pipelines in parallel.
/// Bit-identical for a fixed shard count regardless of num_threads.
ShardedReplayResult replay_sharded(const traffic::Trace& trace, const PipelineConfig& cfg,
                                   const DeployedModel& model, const ReplayConfig& rcfg = {});

}  // namespace iguard::switchsim
