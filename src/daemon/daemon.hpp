// iguardd core (DESIGN.md §4i): the long-running serving loop that composes
// the hardened ingest chain into one process —
//
//   source (file tail / fd) → RecordFramer → io::TraceReader
//     → event-time offset (looped replay stays monotone)
//     → io::OverloadGate → io::SpscRing
//     → shard_of() → K switchsim::Pipelines (one consumer thread)
//     → obs registry (Prometheus text) + AlertLog
//
// Two execution modes share every stage: run() uses a producer thread
// (source→gate→ring) plus the calling thread as consumer (ring→pipelines);
// run_synchronous() interleaves pump_once()/drain_some() on one thread.
// Because the ring preserves order and every stage is a deterministic
// function of the packet sequence, both modes produce byte-identical
// non-timing state — the determinism tests gate exactly that.
//
// The hand-off is batch-granular, so the only cross-core traffic a packet
// causes is its own ring slot:
//   - the producer pushes the gate's admitted batch with try_push_n; on a
//     full ring it parks (threaded) or drains inline (single-thread modes);
//   - the consumer pops up to kStageCapacity packets into a staging array
//     it owns, then runs the per-packet loop (shard route, process, alert
//     cadence) over that array;
//   - DaemonStats::pushed/popped and the daemon.pushed/popped counters move
//     once per batch. popped counts a batch after its verdicts, so when
//     drain_some() returns daemon.popped equals the packets judged so far.
// Scheduling-dependent hand-off counts live under timing.* (producer waits
// on a full ring, consumer polls of an empty one), outside the
// deterministic exposition.
//
// Steady-state allocation contract: once warm, a serving step allocates
// nothing on either side. The consumer packet path (try_pop_n → shard_of →
// Pipeline::process → alert cadence check) and the producer path (source
// chunk → framer → TraceReader → gate → try_push_n) both run in buffers
// sized by the first batches and reused after: the source's read buffer,
// the framer's pending bytes and batch, the reader's IngestResult (refilled
// in place by read_buffer(bytes, out)), the gate's queue and the admit
// buffer. The alloc-probe test brackets pump_once() and drain_some() over a
// warm CSV replay and a warm pcap replay. What still allocates is driven by
// the stream, not by the step: a quarantined record (its detail and snippet
// strings), a gate queue or batch larger than any before it, and a flow's
// first classification on the pipelines' blue path.
//
// Reload: request_reload() re-validates a full DaemonConfig, rejects
// structural changes (shards, source identity, pipeline/control shape) with
// a reason, and hot-applies the rest at safe points — the producer swaps
// the overload gate between batches (the old gate's queue is flushed into
// the ring, so no packet is lost), and the consumer routes a model
// rebuild+publish through each shard's hitless swap loop. Conservation
// (`ingest.accepted == gate.offered`, `gate.offered == admitted + shed`,
// `pushed == popped == Σ shard packets`) holds across the reload;
// audit_daemon_conservation() checks the whole chain.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "daemon/alerts.hpp"
#include "daemon/source.hpp"
#include "io/ingest.hpp"
#include "io/overload.hpp"
#include "io/spsc_ring.hpp"
#include "obs/metrics.hpp"
#include "switchsim/pipeline.hpp"
#include "switchsim/replay.hpp"

namespace iguard::daemon {

struct SourceConfig {
  enum class Kind : std::uint8_t { kFile = 0, kFd };
  Kind kind = Kind::kFile;
  std::string path;  // kFile
  int fd = -1;       // kFd: borrowed descriptor (stdin, replay socket)
  /// Times a finite file is replayed end-to-end. 0 = loop forever (until
  /// request_stop); meaningful for kFile only.
  std::size_t loops = 1;
  /// kFile: keep polling for appended bytes after EOF (tail -f) instead of
  /// ending the pass. Mutually exclusive with loops != 1.
  bool follow = false;
  /// Event-time gap inserted between loop iterations when the replay wraps.
  double loop_gap_s = 0.001;
  std::size_t chunk_bytes = 64 * 1024;
};

struct DaemonConfig {
  SourceConfig source;
  /// metrics/prefix are overridden by the daemon. limits.max_records must be
  /// 0: the reader applies it per batch, and a server has no use for a cap
  /// on the whole stream.
  io::TraceReaderConfig reader;
  io::OverloadConfig overload;
  /// Per-shard pipeline template; metrics_prefix is rewritten per shard
  /// ("<metrics_prefix>.shard0") and record_labels is forced off (a
  /// long-running daemon must not grow per-packet label vectors).
  switchsim::PipelineConfig pipeline;
  std::size_t shards = 1;
  std::uint64_t shard_seed = switchsim::ReplayConfig{}.shard_seed;
  std::size_t ring_capacity = 1024;
  /// Batching ceiling per reader call (records); bounds producer latency.
  std::size_t max_batch_records = 4096;
  /// Consumer-side alert/reload scan cadence, in popped packets.
  std::uint64_t alert_check_every = 256;
  std::size_t alert_capacity = 1024;
  /// Optional caller-owned registry shared by every stage (reader counters,
  /// gate counters, per-shard pipeline instruments, daemon counters).
  obs::Registry* metrics = nullptr;
  std::string metrics_prefix = "daemon";
};

/// Empty string when well-formed, otherwise "field: problem". The Daemon
/// constructor throws switchsim::ConfigError on a non-empty result.
std::string validate_config(const DaemonConfig& cfg);

struct DaemonStats {
  io::IngestStats ingest;          // cumulative over every reader batch
  /// Timestamp regressions across batch boundaries fixed by the daemon's
  /// stream-level monotone clamp (the reader clamps only within a batch).
  std::uint64_t cross_batch_clamped = 0;
  io::OverloadStats gate;          // cumulative, across gate reloads
  std::uint64_t pushed = 0;        // packets entered into the ring
  std::uint64_t popped = 0;        // packets consumed from the ring
  std::uint64_t batches = 0;       // reader calls
  std::uint64_t loops_completed = 0;
  std::uint64_t reloads_applied = 0;
  std::uint64_t reloads_rejected = 0;
  bool container_ok = true;
  std::string container_error;     // first container failure, if any
  switchsim::SimStats sim;         // merged across shards (merge_stats)

  bool operator==(const DaemonStats&) const = default;
};

/// Empty string when every conservation identity holds end to end:
///   ingest.offered == accepted + quarantined        (reader)
///   gate.offered   == ingest.accepted               (no loss reader→gate)
///   gate.offered   == admitted + shed               (gate)
///   pushed == gate.admitted, popped == pushed       (ring, after drain)
///   sim.packets == popped                           (pipelines)
/// Otherwise the first violated identity, spelled out.
std::string audit_daemon_conservation(const DaemonStats& s);

class Daemon {
 public:
  enum class PumpStatus : std::uint8_t {
    kProgress = 0,  // bytes moved
    kIdle,          // nothing right now (follow mode); caller may sleep
    kDone,          // source finished and the ring is closed
  };

  /// Every shard binds `model`, the one bundle of the deployment: shards
  /// share it and never copy or compile rules (a swap-enabled shard seeds
  /// its loop with it as version 1). Throws switchsim::ConfigError on an
  /// invalid config. The registry, when set, must outlive the daemon.
  Daemon(const DaemonConfig& cfg, const switchsim::DeployedModel& model);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Producer step: poll the source once, frame, ingest, gate, push into
  /// the ring. Single-threaded callers interleave this with drain_some();
  /// run() calls it from the producer thread.
  PumpStatus pump_once();

  /// Consumer step: pop and process up to `max_packets`. Returns packets
  /// processed. Applies a pending model reload at entry (a safe point).
  /// Allocation-free: packets pass through the preallocated staging array.
  std::size_t drain_some(std::size_t max_packets);

  /// Threaded serving loop: producer thread + this thread as consumer.
  /// Returns when the source finishes (finite loops / fd EOF) or after
  /// request_stop(); the gate is flushed, the ring drained, and the
  /// pipelines' end-of-stream epilogue has run.
  void run();

  /// Deterministic single-thread loop (tests, examples): alternate
  /// pump_once()/drain_some() until done, then finalize. Byte-identical
  /// non-timing state to run().
  void run_synchronous();

  /// Ask the serving loop to wind down: the producer stops reading new
  /// bytes, flushes the gate, closes the ring; the consumer drains the
  /// residue. A record the last read cut in half is never offered (it was
  /// not delivered), so a stop does not quarantine it. Callable from any
  /// thread (signal-handler driven).
  void request_stop();
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

  /// Re-validate `next` and stage it for hot application. Returns empty on
  /// acceptance; otherwise the rejection reason (invalid config, a
  /// structural change that needs a restart, or a source that already
  /// finished — nothing would ever apply the staged halves). Callable from
  /// any thread.
  std::string request_reload(const DaemonConfig& next);

  /// End-of-stream epilogue; idempotent. run()/run_synchronous() call it —
  /// step-mode callers (pump_once/drain_some) must call it themselves once
  /// pump_once() returns kDone and drain_some() returns 0.
  void finalize();

  /// Composed stats snapshot. Exact when the daemon is quiescent (after
  /// run()/finalize()); mid-run it is a best-effort racy read.
  DaemonStats stats() const;

  const AlertLog& alerts() const { return alerts_; }
  /// The most recent quarantined records, across batches. record_index
  /// counts the records offered since the daemon started (0-based), so it
  /// names one record of the stream, not a position within its batch.
  const io::QuarantineRing& quarantine() const { return quarantine_; }
  /// Copy of the effective config, taken under the reload lock — safe to
  /// call from any thread while the serving threads hot-apply reloads.
  DaemonConfig config_snapshot() const;
  /// Prometheus text exposition of the attached registry ("" when none).
  std::string metrics_text() const;

 private:
  void ingest_batch(std::string& bytes);
  void offer_packet(const traffic::Packet& p);
  void push_admitted();
  void finish_producer();          // flush gate, push residue, close ring
  void producer_alert_scan();      // quarantine/shed deltas
  void consumer_alert_scan();      // install/publish deltas per shard
  void apply_pending_gate_reload();   // producer-side, between batches
  void apply_pending_model_reload();  // consumer-side, between packets
  bool next_loop_or_finish();      // loop bookkeeping at end of a pass

  DaemonConfig cfg_;

  // --- producer state -------------------------------------------------------
  FileTail file_;
  FdSource fd_;
  std::unique_ptr<io::TraceReader> reader_;
  RecordFramer framer_;
  std::unique_ptr<io::OverloadGate> gate_;
  io::OverloadStats gate_base_;    // stats of gates retired by reloads
  std::string batch_buf_;          // framed batch (reused)
  io::IngestResult batch_;         // reader output, refilled per batch (reused)
  std::vector<traffic::Packet> admit_buf_;  // gate output (reused)
  double time_offset_ = 0.0;       // looped-replay event-time shift
  double producer_ts_ = 0.0;       // last offered (shifted) timestamp
  /// Atomic because request_reload (any thread) reads it to reject reloads
  /// that nothing would ever apply once the source has finished.
  std::atomic<bool> producer_done_{false};
  std::uint64_t alert_quarantined_seen_ = 0;
  std::uint64_t alert_shed_seen_ = 0;

  // --- ring -----------------------------------------------------------------
  io::SpscRing<traffic::Packet> ring_;

  // --- consumer state -------------------------------------------------------
  /// Packets drain_some() pops per ring call: enough to amortise the cursor
  /// hand-off, small enough (~10 KiB) to stay in L1/L2 while processed.
  static constexpr std::size_t kStageCapacity = 256;
  std::vector<traffic::Packet> stage_;  // kStageCapacity, sized once
  std::vector<std::unique_ptr<switchsim::Pipeline>> pipelines_;
  std::vector<switchsim::SimStats> sim_;         // per shard
  std::vector<std::uint64_t> alert_installs_seen_;   // per shard
  std::vector<std::uint64_t> alert_publishes_seen_;  // per shard
  double consumer_ts_ = 0.0;       // last popped timestamp
  std::uint64_t since_alert_scan_ = 0;
  bool finalized_ = false;
  /// Single-thread modes drain the ring inline when a push finds it full
  /// (no separate consumer exists to make room); run() clears this before
  /// starting its producer thread and restores it after the join.
  bool inline_drain_ = true;

  // --- shared ---------------------------------------------------------------
  DaemonStats stats_;
  AlertLog alerts_;
  io::QuarantineRing quarantine_;  // persistent copy of per-batch quarantines
  std::atomic<bool> stop_{false};
  /// Guards pending_reload_, the gate_ swap (and gate_base_ fold), and the
  /// hot-applied cfg_ fields — so config_snapshot()/stats() can read them
  /// from any thread while the serving threads apply a reload. Mutable: the
  /// const snapshot accessors lock it.
  mutable std::mutex reload_mu_;
  std::unique_ptr<DaemonConfig> pending_reload_;   // staged by request_reload
  std::atomic<bool> reload_gate_pending_{false};
  std::atomic<bool> reload_model_pending_{false};
  struct DaemonObs {
    obs::Counter pushed, popped, batches, loops, reloads, alerts_emitted;
    /// timing.<prefix>.*: scheduling-dependent, so outside the
    /// deterministic exposition.
    obs::Counter producer_waits;  // producer found the ring full and waited
    obs::Counter consumer_idle;   // consumer found the ring empty (run())
  } obs_;
};

}  // namespace iguard::daemon
