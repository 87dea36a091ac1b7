// Overload control at the ingest boundary (DESIGN.md §4g): a bounded queue
// with an event-clocked drain models the hand-off between the trace source
// and the sharded pipelines. When offered load outruns the configured drain
// rate the queue saturates and a shed policy decides which packet to drop —
// every decision is a pure function of (config, packet stream), so shed
// counts are bit-identical across runs and thread counts, and conservation
// (`offered == admitted + shed`) is auditable in every chaos cell.
//
// The disabled gate — and the enabled gate with an infinite drain
// (drain_rate_pps == 0) — admits every packet unchanged, which is the
// byte-identity switch the parity gates rely on: hardening on, overload
// off must reproduce the plain replay exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trafficgen/packet.hpp"

namespace iguard::io {

enum class ShedPolicy : std::uint8_t {
  kDropNewest = 0,  // arriving packet is shed (tail drop)
  kDropOldest,      // queue head is shed to admit the arrival
  kFlowHash,        // flows hashing under the shed fraction are dropped
                    // coherently while saturated; others displace the oldest
};
std::string_view shed_policy_name(ShedPolicy p);

struct OverloadConfig {
  bool enabled = false;
  std::size_t queue_capacity = 1024;
  /// Event-clocked drain: floor((ts - t0) * rate) packets may have left the
  /// queue by `ts`. 0 means infinite drain — the queue never saturates.
  double drain_rate_pps = 0.0;
  ShedPolicy policy = ShedPolicy::kDropNewest;
  /// Seed of the kFlowHash decision hash. Flow-coherent and time-free: a
  /// flow is either in the shed set or not, so the policy degrades whole
  /// flows instead of poking holes in all of them.
  std::uint64_t seed = 0x51EDu;
  double flow_shed_fraction = 0.5;  // kFlowHash: fraction of flow space shed
};

/// Empty string when well-formed, otherwise the first violated invariant.
/// shed_overload / OverloadGate throw ConfigError on a non-empty result.
std::string validate_config(const OverloadConfig& cfg);

struct OverloadStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t shed_newest = 0;
  std::uint64_t shed_oldest = 0;
  std::uint64_t shed_flow_hash = 0;
  std::size_t queue_hwm = 0;  // backpressure high-water mark

  bool conserved() const {
    return offered == admitted + shed && shed == shed_newest + shed_oldest + shed_flow_hash;
  }
  bool operator==(const OverloadStats&) const = default;
};

/// Deterministic gate. Feed packets in timestamp order via offer(); call
/// flush() after the last packet to drain the residue. Admitted packets
/// come out in arrival order (the queue is FIFO; drop-oldest removes from
/// the front, so relative order is preserved).
class OverloadGate {
 public:
  /// Throws switchsim::ConfigError on an invalid config.
  explicit OverloadGate(const OverloadConfig& cfg);

  /// Offer one packet at its event time; admitted packets (drained queue
  /// head) are appended to `out`.
  void offer(const traffic::Packet& p, std::vector<traffic::Packet>& out);

  /// End of stream: everything still queued is admitted.
  void flush(std::vector<traffic::Packet>& out);

  const OverloadStats& stats() const { return stats_; }
  const OverloadConfig& config() const { return cfg_; }

 private:
  void drain_to(double ts_s, std::vector<traffic::Packet>& out);
  bool flow_in_shed_set(const traffic::FiveTuple& ft) const;

  OverloadConfig cfg_;
  OverloadStats stats_;
  std::vector<traffic::Packet> queue_;  // FIFO via head_ cursor
  std::size_t head_ = 0;
  bool clock_started_ = false;
  double t0_ = 0.0;
  std::uint64_t drained_ = 0;  // packets released by the event clock so far
};

/// Whole-trace convenience: run `trace` through a gate and return the
/// admitted sub-trace plus accounting.
struct ShedResult {
  traffic::Trace admitted;
  OverloadStats stats;
};
ShedResult shed_overload(const traffic::Trace& trace, const OverloadConfig& cfg);

/// Threaded smoke path: move a trace through an SpscRing (producer thread
/// pushes, consumer pops) with the daemon's hand-off protocol — bulk ring
/// ops, and a producer parked on a full ring instead of shedding. Order and
/// content are preserved — the ring adds concurrency, not policy — so the
/// output is deterministic even though retry counts are not.
struct RingPumpStats {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  /// Wall-clock-dependent backpressure counts; NOT deterministic. Export
  /// under "timing." only. push_retries counts producer waits on a full
  /// ring, pop_retries consumer polls of an empty one.
  std::uint64_t push_retries = 0;
  std::uint64_t pop_retries = 0;
};
/// `produce_count` caps how many packets the producer pushes before closing
/// the ring (default: the whole trace). The consumer exits on the ring's
/// close signal, not on an expected count, so a producer that stops early —
/// a truncated source, a shutdown — ends the pump instead of live-locking.
traffic::Trace pump_through_ring(const traffic::Trace& trace, std::size_t ring_capacity,
                                 RingPumpStats& stats,
                                 std::size_t produce_count = static_cast<std::size_t>(-1));

}  // namespace iguard::io
