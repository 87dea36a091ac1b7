// Traced run of one workload: per-layer attribution of iguardd's serving
// chain from outside the program (bench/e2e/README.md). Prints every
// per-layer metric as `metric <name> <value> <unit>` and writes the spans to
// <work-dir>/<workload>.spans.json.
//
//   bench_e2e_traced --workload csv_churn --seed 1 --seconds 10
//
// Four step-mode subjects over the same packets, run on one thread in
// interleaved slices of equal record counts so host drift hits all alike:
//   (a) the Daemon, registry attached: pump_once()/drain_some() timed per
//       call — producer/consumer cost, counts, a reload, scrapes, allocations;
//   (b) the Daemon, registry detached — (a) - (b) is the cost of obs;
//   (c) a replica of the chain built from the same public components
//       (FileTail → RecordFramer → TraceReader → OverloadGate →
//       SpscRing → shard_of → Pipeline::process), untraced;
//   (d) the replica with a span around every call into a layer — per-packet
//       calls sampled 1 in 16 — from which each layer's self time is
//       derived. Σ layer self time is reconciled against (a), and (d) - (c)
//       is the tracing overhead.
#include "harness/alloc_counter.hpp"  // counting operator new: this binary only

#include <array>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <type_traits>

#include "core/model_swap.hpp"
#include "e2e.hpp"
#include "io/ingest.hpp"
#include "io/spsc_ring.hpp"
#include "switchsim/replay.hpp"

using namespace e2e;
using namespace iguard;

namespace {

constexpr std::uint64_t kSampleEvery = 16;  // per-packet spans: 1 in 16
constexpr std::size_t kKeptSpans = 100000;  // written to the spans file
constexpr double kReconcileTolerance = 0.15;

enum Layer : std::uint8_t {
  kPump = 0,  // daemon producer step; its self time is the daemon's own glue
  kDrain,     // daemon consumer step; likewise
  kSource,    // FileTail::read_some
  kFramer,    // RecordFramer::feed/take_batch
  kReader,    // TraceReader::read_buffer
  kGate,      // OverloadGate::offer              (sampled)
  kRingPush,  // SpscRing::try_push               (sampled)
  kRingPop,   // SpscRing::try_pop                (sampled)
  kShardOf,   // switchsim::shard_of              (sampled)
  kProcess,   // Pipeline::process                (sampled)
  kPlMatch,   // PL key quantize + compiled match (sampled, extra)
  kLayers
};
constexpr std::array<const char*, kLayers> kLayerName = {
    "daemon.pump", "daemon.drain",       "daemon.source",     "daemon.framer",
    "io.reader",   "io.gate",            "io.ring.push",      "io.ring.pop",
    "switchsim.shard_of", "switchsim.process", "rules.pl_match"};

/// In-memory span recorder with self-time accounting. A span's work is its
/// duration minus the calibrated timer cost of itself and of every span
/// nested in it; its self time is its work minus its children's work, each
/// child weighted by how many calls it stands for (16 for a sampled
/// per-packet span). "Extra" spans time calls the chain does not make (the
/// PL-key match, a two-shard route when K = 1): their work is taken out of
/// the parent but kept out of the layer sums.
class Tracer {
 public:
  struct Span {
    Layer layer;
    std::int32_t parent;  // index of the enclosing kept span, -1 for none
    std::uint64_t batch;  // root step the span belongs to
    std::int64_t start_ns, end_ns;
  };

  Tracer() { kept_.reserve(kKeptSpans); }

  void calibrate() {
    constexpr int kN = 20000;
    std::vector<std::int64_t> inside;
    inside.reserve(kN);
    const auto t0 = Clock::now();
    for (int i = 0; i < kN; ++i) {
      begin(kPump, 1, true);
      const auto& o = stack_[depth_ - 1];
      const auto t = Clock::now();
      inside.push_back(ns_between(o.start, t));
      --depth_;
    }
    const auto t1 = Clock::now();
    kept_.clear();
    std::nth_element(inside.begin(), inside.begin() + kN / 2, inside.end());
    inside_ns_ = static_cast<double>(inside[kN / 2]);
    full_ns_ = static_cast<double>(ns_between(t0, t1)) / kN;
  }
  double inside_ns() const { return inside_ns_; }
  double full_ns() const { return full_ns_; }

  void start_run() {
    origin_ = Clock::now();
    self_ns_.fill(0.0);
    extra_ns_.fill(0.0);
    extra_n_.fill(0);
    kept_.clear();
    total_spans_ = 0;
  }
  void next_batch() { ++batch_; }

  void begin(Layer l, std::uint64_t weight = 1, bool extra = false) {
    Open& o = stack_[depth_];
    o.layer = l;
    o.weight = weight;
    o.extra = extra;
    o.child_ns = 0.0;
    o.nested = 0;
    o.id = -1;
    if (kept_.size() < kKeptSpans) {
      o.id = static_cast<std::int32_t>(kept_.size());
      kept_.push_back({l, depth_ > 0 ? stack_[depth_ - 1].id : -1, batch_, 0, 0});
    }
    ++depth_;
    o.start = Clock::now();
  }

  /// Drop the innermost open span (a sampled try_pop that found nothing).
  void cancel() {
    Open& o = stack_[--depth_];
    if (o.id >= 0 && static_cast<std::size_t>(o.id) + 1 == kept_.size()) kept_.pop_back();
  }

  /// Close the innermost span; returns its work (timer-corrected duration).
  double end() {
    const auto t = Clock::now();
    Open& o = stack_[--depth_];
    const double raw = static_cast<double>(ns_between(o.start, t));
    const double work =
        std::max(0.0, raw - inside_ns_ - static_cast<double>(o.nested) * full_ns_);
    if (o.extra) {
      extra_ns_[o.layer] += work;
      ++extra_n_[o.layer];
    } else {
      // Signed: a call whose sampled children read long shows negative self
      // time, so that clamping it does not bias the layer sums upward.
      self_ns_[o.layer] += static_cast<double>(o.weight) * (work - o.child_ns);
    }
    if (depth_ > 0) {
      Open& parent = stack_[depth_ - 1];
      parent.nested += 1 + o.nested;
      parent.child_ns += static_cast<double>(o.extra ? 1 : o.weight) * work;
    }
    if (o.id >= 0) {
      kept_[o.id].start_ns = ns_between(origin_, o.start);
      kept_[o.id].end_ns = ns_between(origin_, t);
    }
    ++total_spans_;
    return work;
  }

  double self_ns(Layer l) const { return self_ns_[l]; }
  double extra_mean(Layer l) const {
    return extra_n_[l] > 0 ? extra_ns_[l] / static_cast<double>(extra_n_[l]) : 0.0;
  }
  std::uint64_t total_spans() const { return total_spans_; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  struct Open {
    Layer layer = kPump;
    std::uint64_t weight = 1;
    bool extra = false;
    double child_ns = 0.0;
    std::uint64_t nested = 0;
    std::int32_t id = -1;
    Clock::time_point start;
  };
  std::array<Open, 8> stack_{};
  std::size_t depth_ = 0;
  double inside_ns_ = 0.0, full_ns_ = 0.0;
  std::array<double, kLayers> self_ns_{}, extra_ns_{};
  std::array<std::uint64_t, kLayers> extra_n_{};
  std::uint64_t total_spans_ = 0;
  std::vector<Span> kept_;
  std::uint64_t batch_ = 0;
  Clock::time_point origin_ = Clock::now();
};

/// Step time and volume of one subject. Costs are per offered record: with
/// shedding, records read — not packets processed — are the work done.
struct Tally {
  std::int64_t pump_ns = 0, drain_ns = 0;
  std::uint64_t records = 0;  // offered to the reader
  std::uint64_t packets = 0;  // processed by the pipelines
  double ns_per_record() const {
    return records > 0 ? static_cast<double>(pump_ns + drain_ns) / static_cast<double>(records)
                       : 0.0;
  }
};

/// The Daemon in step mode, each pump_once()/drain_some() call timed. A
/// requested reload is applied by the next drain_some(), which is timed
/// apart from the rest.
class DaemonSubject {
 public:
  DaemonSubject(const Workload& w, const Model& m, const Feed& feed, const std::string& path,
                bool attach)
      : cfg_(serve_config(w, feed, attach ? &reg_ : nullptr)) {
    cfg_.source.path = path;
    cfg_.source.loops = 0;
    d_ = std::make_unique<daemon::Daemon>(cfg_, m.dm);
    reloads0_ = d_->alerts().total(daemon::AlertKind::kReload);
  }

  /// Step until `records` more records were offered (or the source ended).
  void run_slice(std::uint64_t records) {
    const std::uint64_t goal = t_.records + records;
    while (!done_ && t_.records < goal) {
      done_ = step() == daemon::Daemon::PumpStatus::kDone;
      const daemon::DaemonStats s = d_->stats();
      t_.records = s.ingest.offered;
      t_.packets = s.popped;
    }
  }

  void request_reload() { reload_requested_ = d_->request_reload(d_->config_snapshot()).empty(); }

  double scrape_us() {
    const auto a = Clock::now();
    const std::string text = d_->metrics_text();
    return static_cast<double>(ns_between(a, Clock::now())) / 1e3;
  }

  /// Stop, drain, finalize; stats() is exact afterwards.
  void finish() {
    d_->request_stop();
    while (step() != daemon::Daemon::PumpStatus::kDone) {
    }
    d_->finalize();
    stats_ = d_->stats();
    t_.records = stats_.ingest.offered;
    t_.packets = stats_.popped;
  }

  const Tally& tally() const { return t_; }
  const daemon::DaemonStats& stats() const { return stats_; }
  double reload_drain_us() const { return reload_drain_us_; }

 private:
  daemon::Daemon::PumpStatus step() {
    const auto a = Clock::now();
    const daemon::Daemon::PumpStatus st = d_->pump_once();
    const auto b = Clock::now();
    d_->drain_some(static_cast<std::size_t>(-1));
    const auto c = Clock::now();
    t_.pump_ns += ns_between(a, b);
    if (reload_requested_ && reload_drain_us_ == 0.0 &&
        d_->alerts().total(daemon::AlertKind::kReload) > reloads0_) {
      reload_drain_us_ = static_cast<double>(ns_between(b, c)) / 1e3;
    } else {
      t_.drain_ns += ns_between(b, c);
    }
    return st;
  }

  obs::Registry reg_;
  daemon::DaemonConfig cfg_;
  std::unique_ptr<daemon::Daemon> d_;
  Tally t_;
  bool done_ = false, reload_requested_ = false;
  std::uint64_t reloads0_ = 0;
  double reload_drain_us_ = 0.0;
  daemon::DaemonStats stats_;
};

/// The daemon's chain rebuilt from its public components, step for step as
/// Daemon::pump_once()/drain_some() run it in step mode (daemon/daemon.cpp),
/// so that a span can sit around every call into a layer. kTraced = false
/// is the same code with the spans compiled out.
template <bool kTraced>
class Replica {
 public:
  Replica(const Workload& w, const Model& m, const Feed& feed, const std::string& path,
          const core::CompiledVoteWhitelist& pl_engine, Tracer& tr)
      : cfg_(serve_config(w, feed, &reg_)),
        tr_(tr),
        pl_engine_(pl_engine),
        pl_q_(m.dep.guard->pl_model().quantizer()),
        framer_(cfg_.reader.limits.max_record_bytes),
        ring_(cfg_.ring_capacity),
        quarantine_(cfg_.reader.limits.quarantine_capacity,
                    cfg_.reader.limits.quarantine_snippet_bytes) {
    file_.open(path);
    io::TraceReaderConfig rc = cfg_.reader;
    rc.metrics = &reg_;
    rc.metrics_prefix = cfg_.metrics_prefix + ".ingest";
    reader_ = std::make_unique<io::TraceReader>(rc);
    gate_ = std::make_unique<io::OverloadGate>(cfg_.overload);
    switchsim::PipelineConfig pc = cfg_.pipeline;
    pc.record_labels = false;
    pc.metrics = &reg_;
    for (std::size_t k = 0; k < cfg_.shards; ++k) {
      pc.metrics_prefix = cfg_.metrics_prefix + ".shard" + std::to_string(k);
      pipes_.push_back(std::make_unique<switchsim::Pipeline>(pc, m.dm));
    }
    sim_.resize(cfg_.shards);
    admit_.reserve(cfg_.overload.queue_capacity + 1024);
    io_buf_.reserve(cfg_.source.chunk_bytes);
    pushed_ = reg_.counter(cfg_.metrics_prefix + ".pushed");
    popped_ = reg_.counter(cfg_.metrics_prefix + ".popped");
  }

  /// Step until `records` more records were offered.
  void run_slice(std::uint64_t records) {
    const std::uint64_t goal = records_ + records;
    while (records_ < goal) step();
    t_.records = records_;
    t_.packets = popped_n_;
  }

  const Tally& tally() const { return t_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t gate_offers() const { return gate_n_; }
  double path_mean_ns(switchsim::Path p) const {
    const auto i = static_cast<std::size_t>(p);
    return path_n_[i] > 0 ? path_ns_[i] / static_cast<double>(path_n_[i]) : 0.0;
  }
  std::uint64_t path_samples(switchsim::Path p) const {
    return path_n_[static_cast<std::size_t>(p)];
  }

 private:
  /// pump_once() then drain_some(all).
  void step() {
    if constexpr (kTraced) tr_.next_batch();
    const auto a = Clock::now();
    span(kPump, [&] { pump(); });
    const auto b = Clock::now();
    span(kDrain, [&] { drain(static_cast<std::size_t>(-1)); });
    const auto c = Clock::now();
    t_.pump_ns += ns_between(a, b);
    t_.drain_ns += ns_between(b, c);
  }

  template <typename F>
  auto span(Layer l, F&& f, std::uint64_t weight = 1, bool extra = false) {
    if constexpr (kTraced) {
      tr_.begin(l, weight, extra);
      if constexpr (std::is_void_v<decltype(f())>) {
        f();
        last_work_ = tr_.end();
      } else {
        auto r = f();
        last_work_ = tr_.end();
        return r;
      }
    } else {
      return f();
    }
  }

  /// One read of the looped file; at its end the next pass starts, shifted
  /// past the last timestamp as FileTail's loop does in the daemon.
  void pump() {
    std::size_t n = 0;
    span(kSource, [&] { n = file_.read_some(io_buf_, cfg_.source.chunk_bytes); });
    bytes_ += n;
    if (n > 0) {
      span(kFramer, [&] { framer_.feed(io_buf_); });
      io_buf_.clear();
      while (span(kFramer,
                  [&] { return framer_.take_batch(batch_buf_, cfg_.max_batch_records); }) > 0) {
        ingest_batch(batch_buf_);
      }
      return;
    }
    if (framer_.take_tail(batch_buf_) > 0) ingest_batch(batch_buf_);
    file_.rewind();
    framer_.reset();
    time_offset_ = producer_ts_ + cfg_.source.loop_gap_s;
  }

  void ingest_batch(std::string& bytes) {
    io::IngestResult r = span(kReader, [&] { return reader_->read_buffer(bytes); });
    bytes.clear();
    records_ += r.stats.offered;
    for (std::size_t i = 0; i < r.quarantine.size(); ++i) {
      const io::IngestError& e = r.quarantine[i];
      quarantine_.push(e.category, e.record_index, e.detail, e.snippet);
    }
    for (const auto& p : r.trace.packets) {
      traffic::Packet q = p;
      q.ts += time_offset_;
      if (q.ts < producer_ts_) {
        q.ts = producer_ts_;
      } else {
        producer_ts_ = q.ts;
      }
      if (kTraced && gate_n_ % kSampleEvery == 0) {
        span(kGate, [&] { gate_->offer(q, admit_); }, kSampleEvery);
      } else {
        gate_->offer(q, admit_);
      }
      ++gate_n_;
    }
    push_admitted();
  }

  void push_admitted() {
    for (const auto& p : admit_) {
      const bool sampled = kTraced && push_n_++ % kSampleEvery == 0;
      bool ok = sampled ? span(kRingPush, [&] { return ring_.try_push(p); }, kSampleEvery)
                        : ring_.try_push(p);
      while (!ok) {
        drain(ring_.capacity() / 2);  // step mode drains inline when full
        ok = ring_.try_push(p);
      }
      pushed_.inc();
    }
    admit_.clear();
  }

  void drain(std::size_t max_packets) {
    std::size_t done = 0;
    traffic::Packet p;
    while (done < max_packets) {
      const bool sampled = kTraced && popped_n_ % kSampleEvery == 0;
      bool ok = false;
      if (sampled) {
        if constexpr (kTraced) {
          tr_.begin(kRingPop, kSampleEvery);
          ok = ring_.try_pop(p);
          if (ok) {
            tr_.end();
          } else {
            tr_.cancel();
          }
        }
      } else {
        ok = ring_.try_pop(p);
      }
      if (!ok) break;
      ++popped_n_;
      popped_.inc();
      std::size_t k = 0;
      if (cfg_.shards > 1) {
        k = sampled ? span(kShardOf,
                           [&] { return switchsim::shard_of(p.ft, cfg_.shards, cfg_.shard_seed); },
                           kSampleEvery)
                    : switchsim::shard_of(p.ft, cfg_.shards, cfg_.shard_seed);
      } else if (sampled) {
        // K = 1 skips routing; time what a two-shard route would cost.
        sink_ = sink_ + span(kShardOf, [&] { return switchsim::shard_of(p.ft, 2, cfg_.shard_seed); },
                             1, true);
      }
      if (sampled) {
        const auto before = sim_[k].path_count;
        span(kProcess, [&] { pipes_[k]->process(p, sim_[k]); }, kSampleEvery);
        for (std::size_t i = 0; i < before.size(); ++i) {
          if (sim_[k].path_count[i] != before[i]) {
            path_ns_[i] += last_work_;
            ++path_n_[i];
          }
        }
        sink_ = sink_ + static_cast<std::uint64_t>(span(kPlMatch, [&] { return pl_verdict(p); }, 1, true));
      } else {
        pipes_[k]->process(p, sim_[k]);
      }
      ++done;
      if (++since_scan_ >= cfg_.alert_check_every) {  // consumer_alert_scan's reads
        since_scan_ = 0;
        for (const auto& pipe : pipes_) {
          sink_ = sink_ + pipe->controller().rules_installed();
          if (pipe->swap_loop() != nullptr) sink_ = sink_ + pipe->swap_loop()->stats().publishes;
        }
      }
    }
  }

  int pl_verdict(const traffic::Packet& p) const {
    const double f[4] = {static_cast<double>(p.ft.dst_port), static_cast<double>(p.ft.proto),
                         static_cast<double>(p.length), static_cast<double>(p.ttl)};
    std::array<std::uint32_t, 4> key;
    pl_q_.quantize_into(f, key);
    return pl_engine_.classify(key);
  }

  obs::Registry reg_;
  daemon::DaemonConfig cfg_;
  Tracer& tr_;
  const core::CompiledVoteWhitelist& pl_engine_;
  const rules::Quantizer& pl_q_;
  daemon::FileTail file_;
  daemon::RecordFramer framer_;
  std::unique_ptr<io::TraceReader> reader_;
  std::unique_ptr<io::OverloadGate> gate_;
  io::SpscRing<traffic::Packet> ring_;
  io::QuarantineRing quarantine_;
  std::vector<std::unique_ptr<switchsim::Pipeline>> pipes_;
  std::vector<switchsim::SimStats> sim_;
  std::vector<traffic::Packet> admit_;
  std::string io_buf_, batch_buf_;
  obs::Counter pushed_, popped_;
  double time_offset_ = 0.0, producer_ts_ = 0.0;
  double last_work_ = 0.0;
  Tally t_;
  std::uint64_t since_scan_ = 0;
  volatile std::uint64_t sink_ = 0;  // keeps calls made only to be timed from being elided
  std::uint64_t gate_n_ = 0, push_n_ = 0, popped_n_ = 0, bytes_ = 0, records_ = 0;
  std::array<double, 6> path_ns_{};
  std::array<std::uint64_t, 6> path_n_{};
};

void write_spans(const std::string& path, const Args& a, const Tracer& tr) {
  std::ofstream f(path);
  f << "{\"workload\": \"" << a.workload->name << "\", \"seed\": " << a.seed
    << ", \"sample_every\": " << kSampleEvery << ", \"timer_inside_ns\": " << tr.inside_ns()
    << ", \"timer_full_ns\": " << tr.full_ns() << ", \"spans_total\": " << tr.total_spans()
    << ",\n \"layers\": [";
  for (std::size_t l = 0; l < kLayers; ++l) f << (l ? ", " : "") << '"' << kLayerName[l] << '"';
  f << "],\n \"columns\": [\"layer\", \"start_ns\", \"end_ns\", \"parent\", \"batch\"],\n"
    << " \"spans\": [\n";
  const auto& spans = tr.kept();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    f << "[" << unsigned{s.layer} << "," << s.start_ns << "," << s.end_ns << "," << s.parent << ","
      << s.batch << "]" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  std::signal(SIGPIPE, SIG_IGN);
  const Workload& w = *a.workload;
  print_header(a, "bench_e2e_traced");

  const traffic::Trace trace = make_trace(w, a.seed, a.smoke);
  const Feed feed(w, trace, a.seed);
  const std::string path = work_path(a, w.wire == Wire::kPcap ? ".pcap" : ".csv");
  write_file(path, feed.pass0());

  // --- set-up, by part ----------------------------------------------------------
  SetupTimes st;
  const std::unique_ptr<Model> model = build_model(a.smoke, st);
  double ctor_ms = 0.0;
  {
    obs::Registry reg;
    daemon::DaemonConfig cfg = serve_config(w, feed, &reg);
    cfg.source.path = path;
    const auto t0 = Clock::now();
    const daemon::Daemon d(cfg, model->dm);
    ctor_ms = seconds_between(t0, Clock::now()) * 1e3;
  }
  const core::IGuard& guard = *model->dep.guard;
  std::vector<double> build_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const auto bundle = core::build_bundle(2, guard.whitelist(), guard.quantizer(),
                                           guard.pl_model().whitelist(),
                                           guard.pl_model().quantizer());
    build_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }

  Gate gate;
  const daemon::DaemonStats parity = parity_gate(w, *model, feed, path, gate);
  std::printf("digest %s\n", verdict_digest(parity.sim).c_str());

  // --- the four subjects, interleaved slice by slice ---------------------------------
  // Round-robin slices of equal record counts: host drift lands on every
  // subject alike, so their differences are the program's, not the host's.
  const core::CompiledVoteWhitelist pl_engine(guard.pl_model().whitelist());
  Tracer tr;
  tr.calibrate();
  DaemonSubject da(w, *model, feed, path, true);
  DaemonSubject db(w, *model, feed, path, false);
  Replica<false> rc(w, *model, feed, path, pl_engine, tr);
  Replica<true> rd(w, *model, feed, path, pl_engine, tr);
  const std::uint64_t slice = a.smoke ? 2000 : 20000;
  std::vector<double> scrape_us;
  std::size_t allocs = 0;
  double rss0 = -1.0;
  std::uint64_t packets0 = 0;
  const auto all_packets = [&] {
    return da.tally().packets + db.tally().packets + rc.tally().packets + rd.tally().packets;
  };
  tr.start_run();
  const auto t0 = Clock::now();
  auto next_scrape = t0 + std::chrono::milliseconds(250);
  bool reload_requested = false;
  for (double elapsed = 0.0; elapsed < a.seconds; elapsed = seconds_between(t0, Clock::now())) {
    const std::size_t allocs0 = harness::alloc_count();
    da.run_slice(slice);
    allocs += harness::alloc_count() - allocs0;
    db.run_slice(slice);
    rc.run_slice(slice);
    rd.run_slice(slice);
    if (Clock::now() >= next_scrape) {
      scrape_us.push_back(da.scrape_us());
      next_scrape += std::chrono::milliseconds(250);
    }
    if (!reload_requested && elapsed >= 0.5 * a.seconds) {
      da.request_reload();
      reload_requested = true;
    }
    if (rss0 < 0.0 && elapsed >= 0.2 * a.seconds) {
      rss0 = rss_mib();
      packets0 = all_packets();
    }
  }
  const double rss_growth = rss0 < 0.0 ? 0.0
                                       : (rss_mib() - rss0) /
                                             (static_cast<double>(all_packets() - packets0) / 1e6);
  da.finish();
  db.finish();
  for (const DaemonSubject* d : {&da, &db}) {
    const std::string audit = daemon::audit_daemon_conservation(d->stats());
    gate.check(audit.empty(), "step run conservation: " + audit);
  }
  gate.check(da.reload_drain_us() > 0.0, "the mid-run reload was never applied");
  std::printf("digest step_run %s\n", verdict_digest(da.stats().sim).c_str());
  write_spans(a.work_dir + "/" + std::string(w.name) + ".spans.json", a, tr);

  // --- attribution -------------------------------------------------------------------
  const Tally& ta = da.tally();
  const Tally& td = rd.tally();
  const auto per = [](double ns, std::uint64_t n) {
    return n > 0 ? ns / static_cast<double>(n) : 0.0;
  };
  double layer_sum = 0.0;
  for (std::size_t l = 0; l < kLayers; ++l) layer_sum += tr.self_ns(static_cast<Layer>(l));
  const double reconcile = per(layer_sum, td.records) / ta.ns_per_record();
  const double route_ns =
      w.shards > 1 ? per(tr.self_ns(kShardOf), td.packets) : tr.extra_mean(kShardOf);

  print_diag("trace.timer_inside_ns", tr.inside_ns(), "ns");
  print_diag("trace.timer_full_ns", tr.full_ns(), "ns");
  print_diag("trace.spans", static_cast<double>(tr.total_spans()), "count",
             "kept=" + std::to_string(tr.kept().size()));
  print_diag("trace.replica_vs_daemon", rc.tally().ns_per_record() / ta.ns_per_record(), "ratio",
             "untraced replica over daemon, ns per record");
  for (const auto& [name, t] : {std::pair<const char*, const Tally*>{"a.daemon", &ta},
                                {"b.daemon_detached", &db.tally()},
                                {"c.replica", &rc.tally()},
                                {"d.replica_traced", &td}}) {
    print_diag(std::string("step.") + name + ".ns_per_record", t->ns_per_record(), "ns",
               "records=" + std::to_string(t->records));
  }
  for (std::size_t l = 0; l < kLayers; ++l) {
    print_diag(std::string("self.") + kLayerName[l] + ".ns_per_record",
               per(tr.self_ns(static_cast<Layer>(l)), td.records), "ns");
  }
  const daemon::DaemonStats& sa = da.stats();
  const switchsim::SimStats& sim = sa.sim;
  const double sim_pkts = static_cast<double>(std::max<std::size_t>(sim.packets, 1));
  const auto share = [&](std::size_t n) { return static_cast<double>(n) / sim_pkts; };
  const bool reconciled = std::abs(reconcile - 1.0) <= kReconcileTolerance;
  std::printf("check reconcile %s (layer self-time sum / daemon step time = %.4f, tolerance %.2f)\n",
              reconciled ? "ok" : "OUTSIDE", reconcile, kReconcileTolerance);

  print_metric("daemon.producer.ns_per_pkt", per(static_cast<double>(ta.pump_ns), ta.records), "ns");
  print_metric("daemon.consumer.ns_per_pkt", per(static_cast<double>(ta.drain_ns), ta.packets), "ns");
  print_metric("daemon.source.ns_per_kb",
               tr.self_ns(kSource) / (static_cast<double>(rd.bytes()) / 1024.0), "ns");
  print_metric("daemon.framer.ns_per_record", per(tr.self_ns(kFramer), td.records), "ns");
  print_metric("io.reader.ns_per_record", per(tr.self_ns(kReader), td.records), "ns");
  print_metric("io.gate.ns_per_pkt", per(tr.self_ns(kGate), rd.gate_offers()), "ns");
  print_metric("io.ring.ns_per_pkt", per(tr.self_ns(kRingPush) + tr.self_ns(kRingPop), td.packets),
               "ns");
  print_metric("switchsim.shard_of.ns_per_pkt", route_ns, "ns");
  print_metric("switchsim.process.ns_per_pkt", per(tr.self_ns(kProcess), td.packets), "ns");
  for (const auto& [p, name] : {std::pair{switchsim::Path::kRed, "red"},
                                {switchsim::Path::kBrown, "brown"},
                                {switchsim::Path::kBlue, "blue"},
                                {switchsim::Path::kOrange, "orange"},
                                {switchsim::Path::kPurple, "purple"}}) {
    print_metric(std::string("switchsim.process.") + name + ".ns", rd.path_mean_ns(p), "ns");
    print_diag(std::string("switchsim.process.") + name + ".samples",
               static_cast<double>(rd.path_samples(p)), "count");
    print_metric(std::string("switchsim.path.") + name + ".share", share(sim.path(p)), "ratio");
  }
  print_metric("rules.pl_match.ns", tr.extra_mean(kPlMatch), "ns");
  print_metric("switchsim.installs_per_kpkt",
               static_cast<double>(sim.faults.installs_applied) * 1e3 / sim_pkts, "count");
  print_metric("switchsim.leaked_share", share(sim.faults.leaked_packets), "ratio");
  print_metric("io.reader.quarantined_share",
               per(static_cast<double>(sa.ingest.quarantined), sa.ingest.offered), "ratio");
  print_metric("io.gate.shed_share", per(static_cast<double>(sa.gate.shed), sa.gate.offered),
               "ratio");
  print_metric("io.gate.queue_hwm", static_cast<double>(sa.gate.queue_hwm), "count");
  print_metric("core.build_bundle.ms", median(build_ms), "ms");
  print_metric("daemon.reload_drain.us", da.reload_drain_us(), "us");
  print_metric("harness.lab_s", st.lab_s, "s");
  print_metric("harness.deploy_s", st.deploy_s, "s");
  print_metric("daemon.ctor_ms", ctor_ms, "ms");
  print_metric("obs.ns_per_pkt", ta.ns_per_record() - db.tally().ns_per_record(), "ns");
  print_metric("daemon.scrape.us", median(scrape_us), "us");
  print_metric("mem.rss_growth_mb_per_mpkt", rss_growth, "MiB/Mpkt");
  print_metric("alloc.per_kpkt", per(static_cast<double>(allocs) * 1e3, ta.records), "count");
  print_metric("trace.reconcile_ratio", reconcile, "ratio");
  print_metric("trace.overhead_ns_per_pkt", td.ns_per_record() - rc.tally().ns_per_record(), "ns");

  std::uint64_t attempted = 0, failed = 0;
  for (const DaemonSubject* d : {&da, &db}) {
    const auto& s = d->stats();
    attempted += s.ingest.offered;
    const std::uint64_t seen = s.sim.packets + s.ingest.quarantined + s.gate.shed;
    failed += s.ingest.offered > seen ? s.ingest.offered - seen : 0;
  }
  std::remove(path.c_str());
  return finish(gate, attempted, failed);
}
