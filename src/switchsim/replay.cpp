#include "switchsim/replay.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>

#include "ml/parallel.hpp"

namespace iguard::switchsim {

std::string validate_config(const ReplayConfig& cfg) {
  if (cfg.shards == 0) return "shards: must be >= 1 (got 0)";
  return {};
}

namespace {

void throw_if_invalid(const ReplayConfig& cfg) {
  if (const std::string err = validate_config(cfg); !err.empty()) {
    const std::size_t colon = err.find(':');
    throw ConfigError("ReplayConfig", err.substr(0, colon),
                      colon == std::string::npos ? err : err.substr(colon + 2));
  }
}

}  // namespace

std::vector<traffic::Trace> shard_trace(const traffic::Trace& trace, const ReplayConfig& cfg) {
  throw_if_invalid(cfg);
  const std::size_t k = cfg.shards;
  std::vector<traffic::Trace> parts(k);
  for (const auto& p : trace.packets) {
    parts[shard_of(p.ft, k, cfg.shard_seed)].packets.push_back(p);
  }
  return parts;
}

SimStats merge_stats(const std::vector<SimStats>& parts) {
  SimStats out;
  for (const auto& s : parts) {
    for (std::size_t i = 0; i < out.path_count.size(); ++i) out.path_count[i] += s.path_count[i];
    out.green_mirrors += s.green_mirrors;
    out.packets += s.packets;
    out.dropped += s.dropped;
    out.blacklist_hits += s.blacklist_hits;
    out.collisions += s.collisions;
    out.flows_classified += s.flows_classified;
    out.benign_feature_mirrors += s.benign_feature_mirrors;
    out.tp += s.tp;
    out.fp += s.fp;
    out.tn += s.tn;
    out.fn += s.fn;
    out.faults.digests_received += s.faults.digests_received;
    out.faults.digests_delivered += s.faults.digests_delivered;
    out.faults.channel_overflow_drops += s.faults.channel_overflow_drops;
    out.faults.mirror_overflow_drops += s.faults.mirror_overflow_drops;
    out.faults.injected_digest_drops += s.faults.injected_digest_drops;
    out.faults.delayed_digests += s.faults.delayed_digests;
    // High-water marks of independent channels: the sum bounds the fleet's
    // aggregate backlog (each shard peaks at a different time).
    out.faults.backlog_hwm += s.faults.backlog_hwm;
    out.faults.install_attempts += s.faults.install_attempts;
    out.faults.installs_applied += s.faults.installs_applied;
    out.faults.install_failures += s.faults.install_failures;
    out.faults.install_retries += s.faults.install_retries;
    out.faults.dead_letters += s.faults.dead_letters;
    out.faults.crashes += s.faults.crashes;
    out.faults.digests_lost_to_crash += s.faults.digests_lost_to_crash;
    out.faults.retry_installs_lost_to_crash += s.faults.retry_installs_lost_to_crash;
    out.faults.recovery_installs += s.faults.recovery_installs;
    out.faults.leaked_packets += s.faults.leaked_packets;
    out.faults.mirrors_enqueued += s.faults.mirrors_enqueued;
    out.faults.mirrors_delivered += s.faults.mirrors_delivered;
    out.faults.mirrors_lost += s.faults.mirrors_lost;
    out.faults.delayed_mirrors += s.faults.delayed_mirrors;
    out.swap.mirrors_applied += s.swap.mirrors_applied;
    out.swap.extensions_applied += s.swap.extensions_applied;
    out.swap.rejected_by_budget += s.swap.rejected_by_budget;
    out.swap.drift_fires += s.swap.drift_fires;
    out.swap.drift_miss_rate += s.swap.drift_miss_rate;
    out.swap.drift_vote_shift += s.swap.drift_vote_shift;
    out.swap.drift_rejected_slope += s.swap.drift_rejected_slope;
    out.swap.rebuilds += s.swap.rebuilds;
    out.swap.operator_requests += s.swap.operator_requests;
    out.swap.incremental_publishes += s.swap.incremental_publishes;
    out.swap.publishes += s.swap.publishes;
    out.swap.publishes_deferred_by_crash += s.swap.publishes_deferred_by_crash;
    out.swap.coalesced_triggers += s.swap.coalesced_triggers;
    out.swap.bundles_retired += s.swap.bundles_retired;
    // Each shard swaps independently; the fleet's "version" is the furthest
    // any shard got.
    out.swap.final_version = std::max(out.swap.final_version, s.swap.final_version);
    out.pred.insert(out.pred.end(), s.pred.begin(), s.pred.end());
    out.truth.insert(out.truth.end(), s.truth.begin(), s.truth.end());
  }
  return out;
}

ShardedReplayResult replay_sharded(const traffic::Trace& trace, const PipelineConfig& cfg,
                                   const DeployedModel& model, const ReplayConfig& rcfg) {
  throw_if_invalid(rcfg);
  const std::size_t k = rcfg.shards;
  std::vector<traffic::Trace> parts(k);
  std::vector<std::uint32_t> shard_of_packet;
  shard_of_packet.reserve(trace.size());
  for (const auto& p : trace.packets) {
    const std::size_t s = shard_of(p.ft, k, rcfg.shard_seed);
    shard_of_packet.push_back(static_cast<std::uint32_t>(s));
    parts[s].packets.push_back(p);
  }

  ShardedReplayResult out;
  out.per_shard.resize(k);
  std::vector<SimStats>& shard_stats = out.per_shard;

  // Observability (DESIGN.md §4d): each shard gets its own instrument
  // namespace ("<prefix>.shard3.*") so concurrent pipelines never share an
  // instrument and every non-"timing." key stays byte-deterministic. Shard
  // wall times land under "timing." — wall clock is the one thing that may
  // differ run to run.
  const bool obs_on = cfg.metrics != nullptr && cfg.metrics->enabled();
  const bool clone_cfgs = obs_on || rcfg.capture_digests;
  std::vector<PipelineConfig> shard_cfgs;
  std::vector<obs::Gauge> shard_wall_ns(k);
  obs::Gauge imbalance;
  if (clone_cfgs) shard_cfgs.assign(k, cfg);
  if (obs_on) {
    for (std::size_t s = 0; s < k; ++s) {
      const std::string sp = cfg.metrics_prefix + ".shard" + std::to_string(s);
      shard_cfgs[s].metrics_prefix = sp;
      shard_wall_ns[s] = cfg.metrics->gauge("timing." + sp + ".wall_ns");
    }
    imbalance = cfg.metrics->gauge("timing." + cfg.metrics_prefix + ".shard_imbalance");
  }
  // Digest capture: one tap vector per shard (preallocated before the
  // parallel loop, so the pointers stay stable), merged below.
  std::vector<std::vector<TimedDigest>> shard_digests(rcfg.capture_digests ? k : 0);
  if (rcfg.capture_digests) {
    for (std::size_t s = 0; s < k; ++s) shard_cfgs[s].control.digest_tap = &shard_digests[s];
  }

  // One thread per shard is plenty: each task is a full sequential replay.
  ml::ThreadPool pool(std::min(ml::resolve_threads(rcfg.num_threads), k));
  if (obs_on) pool.set_metrics(cfg.metrics, cfg.metrics_prefix + ".pool");
  std::vector<double> wall_ns(k, 0.0);
  pool.parallel_for(k, [&](std::size_t s) {
    const auto t0 = std::chrono::steady_clock::now();
    Pipeline pipe(clone_cfgs ? shard_cfgs[s] : cfg, model);
    shard_stats[s] = pipe.run(parts[s]);
    if (obs_on) {
      wall_ns[s] = static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                           std::chrono::steady_clock::now() - t0)
                                           .count());
      shard_wall_ns[s].set(wall_ns[s]);
    }
  });
  if (obs_on) {
    // Imbalance ratio: slowest shard over mean shard wall time (1.0 = even).
    const double sum = std::accumulate(wall_ns.begin(), wall_ns.end(), 0.0);
    const double mx = *std::max_element(wall_ns.begin(), wall_ns.end());
    imbalance.set(sum > 0.0 ? mx * static_cast<double>(k) / sum : 0.0);
  }

  out.stats = merge_stats(shard_stats);
  if (rcfg.capture_digests) {
    // K-way merge of the per-shard taps. Each shard's log is already in
    // nondecreasing timestamp order (packets are processed in trace order
    // within a shard); strict less-than keeps the lowest shard index on
    // ties, so the merged stream is deterministic.
    std::size_t total = 0;
    for (const auto& v : shard_digests) total += v.size();
    out.digests.reserve(total);
    std::vector<std::size_t> cursor(k, 0);
    while (out.digests.size() < total) {
      std::size_t best = k;
      for (std::size_t s = 0; s < k; ++s) {
        if (cursor[s] >= shard_digests[s].size()) continue;
        if (best == k || shard_digests[s][cursor[s]].ts < shard_digests[best][cursor[best]].ts) {
          best = s;
        }
      }
      out.digests.push_back(shard_digests[best][cursor[best]++]);
    }
  }
  if (cfg.record_labels) {
    // Re-interleave the per-shard label streams into original trace order:
    // walk the trace, taking each packet's verdict from the front of its
    // shard's stream (each shard preserved its sub-trace order).
    out.stats.pred.clear();
    out.stats.truth.clear();
    out.stats.pred.reserve(trace.size());
    out.stats.truth.reserve(trace.size());
    std::vector<std::size_t> next(k, 0);
    for (const std::uint32_t s : shard_of_packet) {
      const std::size_t i = next[s]++;
      out.stats.pred.push_back(shard_stats[s].pred[i]);
      out.stats.truth.push_back(shard_stats[s].truth[i]);
    }
  }
  return out;
}

}  // namespace iguard::switchsim
