#include "daemon/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <thread>

namespace iguard::daemon {

namespace {

/// Consume a pending-reload flag. The plain load first keeps the common
/// "nothing pending" poll a read: an exchange is a locked read-modify-write
/// that would pull the flags' line away from the other serving thread on
/// every poll.
bool take_flag(std::atomic<bool>& flag) {
  return flag.load(std::memory_order_relaxed) &&
         flag.exchange(false, std::memory_order_acq_rel);
}

void accumulate(io::OverloadStats& into, const io::OverloadStats& s) {
  into.offered += s.offered;
  into.admitted += s.admitted;
  into.shed += s.shed;
  into.shed_newest += s.shed_newest;
  into.shed_oldest += s.shed_oldest;
  into.shed_flow_hash += s.shed_flow_hash;
  into.queue_hwm = std::max(into.queue_hwm, s.queue_hwm);
}

/// First structural difference between the running config and a reload
/// candidate, or empty when everything that differs is hot-appliable
/// (overload.*, source pacing fields, alert cadence). Structural fields
/// shape preallocated state — shards, rings, pipelines, the reader — and
/// changing them needs a restart, not a reload.
std::string reload_incompatibility(const DaemonConfig& cur, const DaemonConfig& next) {
  const auto changed = [](const char* field) {
    return std::string(field) + ": changed by reload (restart required)";
  };
  if (next.shards != cur.shards) return changed("shards");
  if (next.shard_seed != cur.shard_seed) return changed("shard_seed");
  if (next.ring_capacity != cur.ring_capacity) return changed("ring_capacity");
  if (next.alert_capacity != cur.alert_capacity) return changed("alert_capacity");
  if (next.metrics != cur.metrics) return changed("metrics");
  if (next.metrics_prefix != cur.metrics_prefix) return changed("metrics_prefix");
  if (next.source.kind != cur.source.kind) return changed("source.kind");
  if (next.source.path != cur.source.path) return changed("source.path");
  if (next.source.fd != cur.source.fd) return changed("source.fd");
  const auto& rd = next.reader;
  const auto& rc = cur.reader;
  if (rd.format != rc.format) return changed("reader.format");
  if (rd.clamp_timestamps != rc.clamp_timestamps) return changed("reader.clamp_timestamps");
  if (rd.limits.max_record_bytes != rc.limits.max_record_bytes)
    return changed("reader.limits.max_record_bytes");
  if (rd.limits.max_records != rc.limits.max_records) return changed("reader.limits.max_records");
  const auto& pn = next.pipeline;
  const auto& pc = cur.pipeline;
  if (pn.packet_threshold_n != pc.packet_threshold_n)
    return changed("pipeline.packet_threshold_n");
  if (pn.idle_timeout_delta != pc.idle_timeout_delta)
    return changed("pipeline.idle_timeout_delta");
  if (pn.flow_slots != pc.flow_slots) return changed("pipeline.flow_slots");
  if (pn.blacklist_capacity != pc.blacklist_capacity)
    return changed("pipeline.blacklist_capacity");
  if (pn.eviction != pc.eviction) return changed("pipeline.eviction");
  if (pn.match_engine != pc.match_engine) return changed("pipeline.match_engine");
  if (pn.batch_size != pc.batch_size) return changed("pipeline.batch_size");
  if (pn.swap.enabled != pc.swap.enabled) return changed("pipeline.swap.enabled");
  if (pn.swap.publish_after_extensions != pc.swap.publish_after_extensions)
    return changed("pipeline.swap.publish_after_extensions");
  if (pn.swap.swap_latency_s != pc.swap.swap_latency_s)
    return changed("pipeline.swap.swap_latency_s");
  if (pn.swap.recent_capacity != pc.swap.recent_capacity)
    return changed("pipeline.swap.recent_capacity");
  const auto& cn = pn.control;
  const auto& cc = pc.control;
  if (cn.control_latency_s != cc.control_latency_s)
    return changed("pipeline.control.control_latency_s");
  if (cn.channel_capacity != cc.channel_capacity)
    return changed("pipeline.control.channel_capacity");
  if (cn.max_install_retries != cc.max_install_retries)
    return changed("pipeline.control.max_install_retries");
  if (cn.retry_backoff_s != cc.retry_backoff_s)
    return changed("pipeline.control.retry_backoff_s");
  if (cn.retry_backoff_cap_s != cc.retry_backoff_cap_s)
    return changed("pipeline.control.retry_backoff_cap_s");
  if (cn.faults.digest_loss_rate != cc.faults.digest_loss_rate ||
      cn.faults.digest_delay_rate != cc.faults.digest_delay_rate ||
      cn.faults.install_failure_rate != cc.faults.install_failure_rate ||
      cn.faults.crashes.size() != cc.faults.crashes.size() ||
      cn.faults.bursts.size() != cc.faults.bursts.size()) {
    return changed("pipeline.control.faults");
  }
  return {};
}

}  // namespace

std::string validate_config(const DaemonConfig& cfg) {
  if (cfg.shards == 0) return "shards: must be >= 1 (got 0)";
  if (cfg.ring_capacity < 2) {
    return "ring_capacity: must be >= 2 (got " + std::to_string(cfg.ring_capacity) + ")";
  }
  if (cfg.max_batch_records == 0) return "max_batch_records: must be >= 1 (got 0)";
  if (cfg.alert_check_every == 0) return "alert_check_every: must be >= 1 (got 0)";
  if (cfg.alert_capacity == 0) return "alert_capacity: must be >= 1 (got 0)";
  if (cfg.source.kind == SourceConfig::Kind::kFile && cfg.source.path.empty()) {
    return "source.path: must be set for a file source";
  }
  if (cfg.source.kind == SourceConfig::Kind::kFd && cfg.source.fd < 0) {
    return "source.fd: must be a valid descriptor (got " + std::to_string(cfg.source.fd) + ")";
  }
  if (cfg.source.chunk_bytes == 0) return "source.chunk_bytes: must be >= 1 (got 0)";
  if (std::isnan(cfg.source.loop_gap_s) || std::isinf(cfg.source.loop_gap_s) ||
      cfg.source.loop_gap_s < 0.0) {
    return "source.loop_gap_s: must be finite and >= 0 (got " +
           std::to_string(cfg.source.loop_gap_s) + ")";
  }
  if (cfg.source.follow && cfg.source.kind != SourceConfig::Kind::kFile) {
    return "source.follow: only a file source can be followed";
  }
  if (cfg.source.follow && cfg.source.loops != 1) {
    return "source.follow: cannot combine follow with looped replay";
  }
  if (std::string err = io::validate_config(cfg.overload); !err.empty()) {
    return "overload." + err;
  }
  if (std::string err = switchsim::validate_config(cfg.pipeline.control); !err.empty()) {
    return "pipeline.control." + err;
  }
  return {};
}

std::string audit_daemon_conservation(const DaemonStats& s) {
  const auto mismatch = [](const char* what, std::uint64_t a, std::uint64_t b) {
    return std::string(what) + " (" + std::to_string(a) + " != " + std::to_string(b) + ")";
  };
  if (!s.ingest.conserved()) {
    return mismatch("ingest offered != accepted + quarantined", s.ingest.offered,
                    s.ingest.accepted + s.ingest.quarantined);
  }
  if (s.gate.offered != s.ingest.accepted) {
    return mismatch("gate offered != ingest accepted", s.gate.offered, s.ingest.accepted);
  }
  if (!s.gate.conserved()) {
    return mismatch("gate offered != admitted + shed", s.gate.offered,
                    s.gate.admitted + s.gate.shed);
  }
  if (s.pushed != s.gate.admitted) {
    return mismatch("ring pushed != gate admitted", s.pushed, s.gate.admitted);
  }
  if (s.popped != s.pushed) return mismatch("ring popped != pushed", s.popped, s.pushed);
  if (s.sim.packets != s.popped) {
    return mismatch("pipeline packets != popped", s.sim.packets, s.popped);
  }
  return {};
}

Daemon::Daemon(const DaemonConfig& cfg, const switchsim::DeployedModel& model)
    : cfg_(cfg),
      model_(&model),
      framer_(cfg.reader.limits.max_record_bytes),
      ring_(cfg.ring_capacity),
      alerts_(cfg.alert_capacity),
      quarantine_(cfg.reader.limits.quarantine_capacity,
                  cfg.reader.limits.quarantine_snippet_bytes) {
  if (const std::string err = validate_config(cfg_); !err.empty()) {
    const std::size_t colon = err.find(':');
    throw switchsim::ConfigError("DaemonConfig", err.substr(0, colon),
                                 colon == std::string::npos ? err : err.substr(colon + 2));
  }
  if (cfg_.source.kind == SourceConfig::Kind::kFile) {
    if (!file_.open(cfg_.source.path)) {
      throw switchsim::ConfigError("DaemonConfig", "source.path", file_.error());
    }
  } else {
    fd_ = FdSource(cfg_.source.fd);
  }

  cfg_.reader.metrics = cfg_.metrics;
  cfg_.reader.metrics_prefix = cfg_.metrics_prefix + ".ingest";
  reader_ = std::make_unique<io::TraceReader>(cfg_.reader);
  gate_ = std::make_unique<io::OverloadGate>(cfg_.overload);

  // A serving daemon must not grow per-packet label vectors without bound.
  cfg_.pipeline.record_labels = false;
  pipelines_.reserve(cfg_.shards);
  sim_.resize(cfg_.shards);
  alert_installs_seen_.assign(cfg_.shards, 0);
  alert_publishes_seen_.assign(cfg_.shards, 0);
  for (std::size_t k = 0; k < cfg_.shards; ++k) {
    switchsim::PipelineConfig pc = cfg_.pipeline;
    pc.metrics = cfg_.metrics;
    pc.metrics_prefix = cfg_.metrics_prefix + ".shard" + std::to_string(k);
    pipelines_.push_back(std::make_unique<switchsim::Pipeline>(pc, *model_));
  }

  admit_buf_.reserve(cfg_.overload.queue_capacity + 1024);
  stage_.resize(kStageCapacity);

  if (cfg_.metrics != nullptr && cfg_.metrics->enabled()) {
    const std::string& p = cfg_.metrics_prefix;
    obs_.pushed = cfg_.metrics->counter(p + ".pushed");
    obs_.popped = cfg_.metrics->counter(p + ".popped");
    obs_.batches = cfg_.metrics->counter(p + ".batches");
    obs_.loops = cfg_.metrics->counter(p + ".loops");
    obs_.reloads = cfg_.metrics->counter(p + ".reloads");
    obs_.alerts_emitted = cfg_.metrics->counter(p + ".alerts");
    obs_.producer_waits = cfg_.metrics->counter("timing." + p + ".producer_waits");
    obs_.consumer_idle = cfg_.metrics->counter("timing." + p + ".consumer_idle");
  }
}

Daemon::~Daemon() = default;

void Daemon::offer_packet(const traffic::Packet& p) {
  traffic::Packet q = p;
  q.ts += time_offset_;
  // The reader clamps within one batch; the stream-level clamp covers
  // regressions across batch (and loop) boundaries so the pipelines' event
  // clocks never run backwards.
  if (q.ts < producer_ts_) {
    q.ts = producer_ts_;
    ++stats_.cross_batch_clamped;
  } else {
    producer_ts_ = q.ts;
  }
  gate_->offer(q, admit_buf_);
}

void Daemon::push_admitted() {
  std::span<const traffic::Packet> rest(admit_buf_);
  while (!rest.empty()) {
    const std::size_t n = ring_.try_push_n(rest);
    if (n > 0) {
      rest = rest.subspan(n);
    } else if (inline_drain_) {
      drain_some(ring_.capacity() / 2);
    } else {
      ring_.wait_while_full();  // threaded mode: parked until the consumer pops
      obs_.producer_waits.inc();
    }
  }
  stats_.pushed += admit_buf_.size();
  obs_.pushed.inc(admit_buf_.size());
  admit_buf_.clear();
}

void Daemon::producer_alert_scan() {
  const std::uint64_t q = stats_.ingest.quarantined;
  if (q > alert_quarantined_seen_) {
    alerts_.emit(AlertKind::kQuarantine, producer_ts_, q - alert_quarantined_seen_);
    alert_quarantined_seen_ = q;
    obs_.alerts_emitted.inc();
  }
  const std::uint64_t shed = gate_base_.shed + gate_->stats().shed;
  if (shed > alert_shed_seen_) {
    alerts_.emit(AlertKind::kShed, producer_ts_, shed - alert_shed_seen_);
    alert_shed_seen_ = shed;
    obs_.alerts_emitted.inc();
  }
}

void Daemon::ingest_batch(std::string& bytes) {
  if (bytes.empty()) return;
  ++stats_.batches;
  obs_.batches.inc();
  io::IngestResult r = reader_->read_buffer(bytes);
  bytes.clear();
  stats_.ingest.offered += r.stats.offered;
  stats_.ingest.accepted += r.stats.accepted;
  stats_.ingest.quarantined += r.stats.quarantined;
  for (std::size_t i = 0; i < io::kIngestCategories; ++i) {
    stats_.ingest.by_category[i] += r.stats.by_category[i];
  }
  stats_.ingest.timestamps_clamped += r.stats.timestamps_clamped;
  for (std::size_t i = 0; i < r.quarantine.size(); ++i) {
    const io::IngestError& e = r.quarantine[i];
    quarantine_.push(e.category, e.record_index, e.detail, e.snippet);
  }
  if (!r.container_ok && stats_.container_ok) {
    stats_.container_ok = false;
    stats_.container_error = r.container_error;
    alerts_.emit(AlertKind::kContainer, producer_ts_, 1);
    obs_.alerts_emitted.inc();
  }
  for (const auto& p : r.trace.packets) offer_packet(p);
  push_admitted();
  producer_alert_scan();
}

void Daemon::finish_producer() {
  if (producer_done_.load(std::memory_order_relaxed)) return;
  // Bytes still in the framer here are the head of a record the last read
  // cut (take_batch left no complete record behind): a stop ended the
  // source mid-record. That record was never delivered, so it is not handed
  // to the reader — which would quarantine it as truncated and charge the
  // source with corruption it did not commit. A finished pass flushed its
  // unterminated tail before reaching here.
  gate_->flush(admit_buf_);
  push_admitted();
  producer_alert_scan();
  ring_.close();
  producer_done_.store(true, std::memory_order_release);
}

bool Daemon::next_loop_or_finish() {
  ++stats_.loops_completed;
  obs_.loops.inc();
  if (cfg_.source.kind == SourceConfig::Kind::kFile && !stop_.load(std::memory_order_relaxed)) {
    const bool more =
        cfg_.source.loops == 0 || stats_.loops_completed < cfg_.source.loops;
    if (more) {
      file_.rewind();
      framer_.reset();
      // Shift the next pass past everything already offered; packets within
      // a pass carry their native (relative) stamps on top of the offset,
      // so the served stream stays monotone without any per-pass clamping.
      time_offset_ = producer_ts_ + cfg_.source.loop_gap_s;
      return true;
    }
  }
  finish_producer();
  return false;
}

Daemon::PumpStatus Daemon::pump_once() {
  if (producer_done_.load(std::memory_order_relaxed)) return PumpStatus::kDone;
  apply_pending_gate_reload();
  if (stop_.load(std::memory_order_relaxed)) {
    finish_producer();
    return PumpStatus::kDone;
  }

  // The framer copies the bytes out of the source's buffer before the next
  // read reuses it.
  std::string_view got;
  bool at_end = false;
  if (cfg_.source.kind == SourceConfig::Kind::kFile) {
    got = file_.read_chunk(cfg_.source.chunk_bytes);
    at_end = got.empty();
  } else {
    got = fd_.read_chunk(cfg_.source.chunk_bytes);
    at_end = fd_.eof();
  }

  if (!got.empty()) {
    framer_.feed(got);
    while (framer_.take_batch(batch_buf_, cfg_.max_batch_records) > 0) {
      ingest_batch(batch_buf_);
    }
    if (framer_.fatal()) {
      // Unframeable stream: hand the residue to the reader for accounting,
      // raise a container alert, and end the source — guessing at record
      // boundaries would charge the source with phantom records.
      if (framer_.take_tail(batch_buf_) > 0) ingest_batch(batch_buf_);
      if (stats_.container_ok) {
        stats_.container_ok = false;
        stats_.container_error = "unframeable stream: record length over limit";
      }
      alerts_.emit(AlertKind::kContainer, producer_ts_, 1);
      obs_.alerts_emitted.inc();
      finish_producer();
      return PumpStatus::kDone;
    }
    return PumpStatus::kProgress;
  }

  if (!at_end) return PumpStatus::kIdle;          // fd: interrupted read
  if (cfg_.source.kind == SourceConfig::Kind::kFile && cfg_.source.follow &&
      !stop_.load(std::memory_order_relaxed)) {
    return PumpStatus::kIdle;                     // tail -f: wait for appends
  }
  // End of a finite pass: a trailing unterminated record is still a record.
  if (framer_.take_tail(batch_buf_) > 0) ingest_batch(batch_buf_);
  return next_loop_or_finish() ? PumpStatus::kProgress : PumpStatus::kDone;
}

std::size_t Daemon::drain_some(std::size_t max_packets) {
  apply_pending_model_reload();
  std::size_t done = 0;
  while (done < max_packets) {
    const std::size_t want = std::min(max_packets - done, stage_.size());
    const std::size_t n = ring_.try_pop_n(std::span(stage_.data(), want));
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      const traffic::Packet& p = stage_[i];
      consumer_ts_ = p.ts;
      const std::size_t k =
          cfg_.shards == 1 ? 0 : switchsim::shard_of(p.ft, cfg_.shards, cfg_.shard_seed);
      pipelines_[k]->process(p, sim_[k]);
      if (++since_alert_scan_ >= cfg_.alert_check_every) consumer_alert_scan();
    }
    // Counted after the batch's verdicts: a reader of daemon.popped never
    // sees a packet counted whose verdict is still pending.
    done += n;
    stats_.popped += n;
    obs_.popped.inc(n);
  }
  return done;
}

void Daemon::consumer_alert_scan() {
  since_alert_scan_ = 0;
  for (std::size_t k = 0; k < cfg_.shards; ++k) {
    const std::uint64_t installs = pipelines_[k]->controller().rules_installed();
    if (installs > alert_installs_seen_[k]) {
      alerts_.emit(AlertKind::kBlacklistInstall, consumer_ts_,
                   installs - alert_installs_seen_[k], static_cast<std::uint32_t>(k));
      alert_installs_seen_[k] = installs;
      obs_.alerts_emitted.inc();
    }
    const switchsim::SwapLoop* loop = pipelines_[k]->swap_loop();
    if (loop != nullptr) {
      const std::uint64_t pubs = loop->stats().publishes;
      if (pubs > alert_publishes_seen_[k]) {
        // Versions are published in sequence starting from the snapshot's
        // version 1, so the live version after `pubs` publishes is 1 + pubs.
        alerts_.emit(AlertKind::kSwapPublish, consumer_ts_, pubs - alert_publishes_seen_[k],
                     static_cast<std::uint32_t>(k), 1 + pubs);
        alert_publishes_seen_[k] = pubs;
        obs_.alerts_emitted.inc();
      }
    }
  }
}

void Daemon::apply_pending_gate_reload() {
  if (!take_flag(reload_gate_pending_)) return;
  io::OverloadConfig oc;
  SourceConfig sc;
  std::size_t max_batch = cfg_.max_batch_records;
  {
    const std::lock_guard<std::mutex> lock(reload_mu_);
    if (pending_reload_ == nullptr) return;
    oc = pending_reload_->overload;
    sc = pending_reload_->source;
    max_batch = pending_reload_->max_batch_records;
  }
  // Retire the old gate without losing a packet: its queue is flushed into
  // the ring (counted admitted), its stats fold into the cumulative base.
  // The flush/push runs unlocked — inline drain can re-enter reload_mu_ via
  // apply_pending_model_reload; only the swap and cfg_ writes need the lock
  // (config_snapshot()/stats() read them from other threads).
  gate_->flush(admit_buf_);
  push_admitted();
  const std::lock_guard<std::mutex> lock(reload_mu_);
  accumulate(gate_base_, gate_->stats());
  gate_ = std::make_unique<io::OverloadGate>(oc);
  cfg_.overload = oc;
  // Producer-owned pacing knobs are hot-appliable; source identity is not
  // (reload_incompatibility rejects that).
  cfg_.source.loops = sc.loops;
  cfg_.source.follow = sc.follow;
  cfg_.source.loop_gap_s = sc.loop_gap_s;
  cfg_.source.chunk_bytes = sc.chunk_bytes;
  cfg_.max_batch_records = max_batch;
}

void Daemon::apply_pending_model_reload() {
  if (!take_flag(reload_model_pending_)) return;
  {
    const std::lock_guard<std::mutex> lock(reload_mu_);
    if (pending_reload_ != nullptr) cfg_.alert_check_every = pending_reload_->alert_check_every;
  }
  // Route the model half through each shard's hitless swap loop: the next
  // bundle version is built off the hot path and becomes live at the
  // pipelines' next pin, swap_latency_s later on the event clock. In-flight
  // packets keep the version they pinned — no packet is lost or reclassified
  // mid-flight.
  for (auto& p : pipelines_) p->request_model_publish(consumer_ts_);
  ++stats_.reloads_applied;
  obs_.reloads.inc();
  alerts_.emit(AlertKind::kReload, consumer_ts_, 1, 0, 0);
  obs_.alerts_emitted.inc();
}

std::string Daemon::request_reload(const DaemonConfig& next) {
  std::string err = validate_config(next);
  if (err.empty() && producer_done_.load(std::memory_order_acquire)) {
    // Nothing will ever reach the reload safe points again: the producer
    // stopped pumping and run() has drained. Accepting would stage halves
    // that are silently never applied.
    err = "source: finished (restart required to reload)";
  }
  if (err.empty()) err = reload_incompatibility(config_snapshot(), next);
  if (!err.empty()) {
    {
      const std::lock_guard<std::mutex> lock(reload_mu_);
      ++stats_.reloads_rejected;
    }
    alerts_.emit(AlertKind::kReload, 0.0, 0, 0, 0);
    obs_.alerts_emitted.inc();
    return err;
  }
  {
    const std::lock_guard<std::mutex> lock(reload_mu_);
    pending_reload_ = std::make_unique<DaemonConfig>(next);
  }
  reload_gate_pending_.store(true, std::memory_order_release);
  reload_model_pending_.store(true, std::memory_order_release);
  return {};
}

void Daemon::request_stop() { stop_.store(true, std::memory_order_relaxed); }

void Daemon::finalize() {
  if (finalized_) return;
  if (!producer_done_.load(std::memory_order_relaxed)) finish_producer();
  while (drain_some(1024) > 0) {
  }
  consumer_alert_scan();
  for (std::size_t k = 0; k < cfg_.shards; ++k) pipelines_[k]->finish_stream(sim_[k]);
  consumer_alert_scan();  // publishes made live by the end-of-stream drain
  stats_.sim = switchsim::merge_stats(sim_);
  finalized_ = true;
}

void Daemon::run() {
  inline_drain_ = false;
  std::thread producer([this] {
    for (;;) {
      const PumpStatus st = pump_once();
      if (st == PumpStatus::kDone) break;
      if (st == PumpStatus::kIdle) {
        if (stop_.load(std::memory_order_relaxed)) {
          finish_producer();
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  });

  for (;;) {
    if (drain_some(4096) > 0) continue;
    if (ring_.closed()) {
      // close() is stored after the final push; one more pop pass after
      // observing it cannot miss a packet.
      if (drain_some(1) == 0) break;
      continue;
    }
    obs_.consumer_idle.inc();
    std::this_thread::yield();
  }
  producer.join();
  inline_drain_ = true;
  finalize();
}

void Daemon::run_synchronous() {
  for (;;) {
    const PumpStatus st = pump_once();
    drain_some(static_cast<std::size_t>(-1));
    if (st == PumpStatus::kDone) break;
    if (st == PumpStatus::kIdle) {
      if (stop_.load(std::memory_order_relaxed)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  finalize();
}

DaemonStats Daemon::stats() const {
  DaemonStats s = stats_;
  {
    // The gate unique_ptr is swapped by apply_pending_gate_reload under this
    // lock; reading it unlocked would be a use-after-free, not merely the
    // documented best-effort racy counter read.
    const std::lock_guard<std::mutex> lock(reload_mu_);
    s.gate = gate_base_;
    accumulate(s.gate, gate_->stats());
  }
  if (!finalized_) s.sim = switchsim::merge_stats(sim_);
  return s;
}

DaemonConfig Daemon::config_snapshot() const {
  const std::lock_guard<std::mutex> lock(reload_mu_);
  return cfg_;
}

std::string Daemon::metrics_text() const {
  if (cfg_.metrics == nullptr) return {};
  return obs::to_prometheus(cfg_.metrics->snapshot());
}

}  // namespace iguard::daemon
