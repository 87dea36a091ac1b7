// Timed end-to-end run of one workload through iguardd's serving chain
// (bench/e2e/README.md). Prints every end-to-end metric as
// `metric <name> <value> <unit>`, the verdict digest and the correctness
// gates, and exits 3 when a gate fails.
//
//   bench_e2e --workload csv_churn --seed 1 --seconds 18
//
// Every workload alternates, in rounds, a threaded run() over the looped
// trace file (throughput) and an open loop at a fixed rate over a pipe
// (latency).
#include <fcntl.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "e2e.hpp"

using namespace e2e;
using namespace iguard;

namespace {

/// Offered rate of every open loop: ~30% of step-mode capacity on the CSV
/// workloads, in bursts of 64 records (one burst every 128 us).
constexpr double kPacedRate = 500000.0;
constexpr std::uint64_t kBurst = 64;
/// A verdict later than this after its record was due misses the SLO.
constexpr std::int64_t kSloNs = 1000000;
/// Throughput windows; each spans several passes over the trace, so the
/// path and shed mix of a window is the trace's.
constexpr double kRateWindowS = 0.25;
/// Latency windows. The host takes a vCPU away several times a second, for
/// up to ~10 ms and ~1% of its time in all; short windows confine each
/// stall to a window of its own, and a median over the windows skips them.
/// That is also why the tail metric is the p95: a p99 is the stalls'.
constexpr double kLatencyWindowS = 0.05;
/// The quantile over window medians that latency_p50_us reports. The host
/// runs at a fast or a slow speed in spells of 0.25–10 s, so window medians
/// fall in two clusters whose shares change from run to run, and their
/// median jumps between them; the 0.9 quantile reads the slow cluster,
/// which every run visits. A window median moves only for a stall of half
/// a window, so the quantile does not pick stalls.
constexpr double kP50WindowQuantile = 0.9;
/// Rounds of about this length, each half closed loop and half open loop,
/// so that both see the host's fast and slow spells.
constexpr double kRoundS = 2.5;

int windows_in(double span_s, double window_s) {
  return std::max(1, static_cast<int>(span_s / window_s));
}

/// The two CPUs a serving run's busy threads are pinned to — the last two
/// the process may use (empty on a single-CPU host) — so that where the
/// scheduler happens to place them, and the caches they leave behind when
/// it moves them, is not part of the run-to-run difference.
std::vector<int> serving_cpus() {
  const std::vector<int> all = allowed_cpus();
  if (all.size() < 2) return {};
  return {all[all.size() - 2], all.back()};
}

/// Records offered/processed/lost across the measured serving phases.
struct Tally {
  std::uint64_t offered = 0, processed = 0, quarantined = 0, shed = 0;
  double rss_growth_mib = 0.0;

  void add(const daemon::DaemonStats& s, double rss_growth) {
    offered += s.ingest.offered;
    processed += s.sim.packets;
    quarantined += s.ingest.quarantined;
    shed += s.gate.shed;
    rss_growth_mib = std::max(rss_growth_mib, rss_growth);
  }
  /// Records that left no trace: neither verdict, quarantine nor shed.
  std::uint64_t unaccounted() const {
    const std::uint64_t seen = processed + quarantined + shed;
    return offered > seen ? offered - seen : 0;
  }
};

/// Sleep until `until`, sampling RSS every 100 ms into `peak`.
void sleep_sampling(Clock::time_point until, double& peak) {
  for (auto now = Clock::now(); now < until; now = Clock::now()) {
    std::this_thread::sleep_until(std::min(until, now + std::chrono::milliseconds(100)));
    peak = std::max(peak, rss_mib());
  }
}

struct ClosedLoop {
  std::vector<double> window_pps;
  daemon::DaemonStats stats;
  double rss_growth = 0.0;
};

/// Threaded run() over the looped trace file. Verdicts are counted from the
/// per-shard path counters by this (sleeping) thread.
ClosedLoop closed_loop(const Workload& w, const Model& m, const Feed& feed,
                       const std::string& path, double warm_s, int windows, double window_s) {
  obs::Registry reg;
  daemon::DaemonConfig cfg = serve_config(w, feed, &reg);
  cfg.source.path = path;
  cfg.source.loops = 0;
  trim_heap();
  const double base = rss_mib();
  double peak = base;
  daemon::Daemon d(cfg, m.dm);
  std::vector<obs::Counter> verdicts;
  for (std::size_t k = 0; k < cfg.shards; ++k) {
    for (const char* p : {"red", "brown", "blue", "orange", "purple"}) {
      verdicts.push_back(reg.counter(cfg.metrics_prefix + ".shard" + std::to_string(k) + ".path." +
                                     p + ".packets"));
    }
  }
  const auto total = [&] {
    std::uint64_t n = 0;
    for (const auto& c : verdicts) n += c.value();
    return n;
  };

  ClosedLoop out;
  const auto t0 = Clock::now();
  std::thread server([&] {
    pin_this_thread(serving_cpus());  // run()'s producer thread inherits the pair
    d.run();
  });
  sleep_sampling(after(t0, warm_s), peak);
  auto t_prev = Clock::now();
  std::uint64_t c_prev = total();
  for (int i = 1; i <= windows; ++i) {
    sleep_sampling(after(t0, warm_s + i * window_s), peak);
    const auto t = Clock::now();
    const std::uint64_t c = total();
    out.window_pps.push_back(static_cast<double>(c - c_prev) / seconds_between(t_prev, t));
    t_prev = t;
    c_prev = c;
  }
  d.request_stop();
  server.join();
  out.stats = d.stats();
  out.rss_growth = peak - base;
  return out;
}

/// Shape of one open loop: a warm-up, then `windows` latency windows.
struct Probe {
  double warm_s = 0.0;
  int windows = 1;
  double window_s = kLatencyWindowS;

  double seconds() const { return warm_s + windows * window_s; }
  std::uint64_t records() const { return static_cast<std::uint64_t>(kPacedRate * seconds()); }
};

/// Latency of every open loop of the process, by window.
struct Latency {
  std::vector<LatencyHist> windows;
  std::uint64_t due_in_windows = 0;  // records due inside the windows
  std::uint64_t met_in_windows = 0;  // ... whose verdict came within kSloNs
  LatencyHist lag, scrape;
  LatencyHist step;  // duration of each send + pump_once() + drain_some()
};

struct OpenLoopRun {
  std::uint64_t written = 0, total = 0, reloads = 0;
  bool order_ok = true;
  daemon::DaemonStats stats;
  double rss_growth = 0.0;
};

/// Open loop in step mode, as `iguardd --stdin --synchronous` serves. One
/// thread writes each burst into a non-blocking pipe once it is due, then
/// runs pump_once()/drain_some(); a record's latency runs from the time its
/// burst was due to the return of the drain_some() call that produced its
/// verdict. Writing from the serving thread keeps a single thread busy, so
/// only one vCPU's stalls reach the latency; a burst that falls due while
/// that thread is busy waits for it, as it would in the pipe. The thread
/// polls rather than blocks: a blocking read would put the host's vCPU
/// halt and wake-up time, not the program, in the tail (README, design
/// notes). A side thread samples RSS and, under operator load, scrapes
/// metrics_text() every 250 ms and requests one reload halfway.
/// `order` is the processing order of the records; empty means identity.
OpenLoopRun open_loop(const Workload& w, const Model& m, const Feed& feed,
                      const std::vector<std::uint32_t>& order, const Probe& probe, Latency& lat) {
  OpenLoopRun out;
  out.total = probe.records();
  const std::size_t w0 = lat.windows.size();
  lat.windows.resize(w0 + static_cast<std::size_t>(probe.windows));

  obs::Registry reg;
  Pipe pipe;
  daemon::DaemonConfig cfg = serve_config(w, feed, &reg);
  cfg.source.kind = daemon::SourceConfig::Kind::kFd;
  cfg.source.fd = pipe.rd;
  (void)::fcntl(pipe.rd, F_SETFL, ::fcntl(pipe.rd, F_GETFL) | O_NONBLOCK);

  trim_heap();
  const double base = rss_mib();
  double peak = base;
  daemon::Daemon d(cfg, m.dm);
  const obs::Counter popped = reg.counter(cfg.metrics_prefix + ".popped");
  const Schedule sched{Clock::now() + std::chrono::milliseconds(20), kPacedRate, kBurst};
  Sender sender(feed, pipe.release_write(), out.total, sched);

  // The serving thread gets the last CPU to itself; the side thread, whose
  // scrapes take about a millisecond, stays off it.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<int> serving, others;
  if (cpus.size() >= 2) {
    serving = {cpus.back()};
    others.assign(cpus.begin(), cpus.end() - 1);
  }
  std::atomic<bool> done{false};
  std::thread side([&] {
    pin_this_thread(others);
    auto next_scrape = after(sched.t0, 0.25);
    const auto reload_at = after(sched.t0, probe.warm_s + 0.5 * probe.windows * probe.window_s);
    bool reloaded = false;
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      peak = std::max(peak, rss_mib());
      if (!w.operator_load) continue;
      const auto now = Clock::now();
      if (now >= next_scrape) {
        const std::string text = d.metrics_text();
        lat.scrape.add(ns_between(now, Clock::now()));
        next_scrape += std::chrono::milliseconds(250);
      }
      if (!reloaded && now >= reload_at) {
        if (d.request_reload(d.config_snapshot()).empty()) ++out.reloads;
        reloaded = true;
      }
    }
  });
  pin_this_thread(serving);

  const auto warm_ns = static_cast<std::int64_t>(probe.warm_s * 1e9);
  const auto window_ns = static_cast<std::int64_t>(probe.window_s * 1e9);
  std::uint64_t seen = 0;
  for (;;) {
    const auto step0 = Clock::now();
    sender.step(step0);
    const daemon::Daemon::PumpStatus st = d.pump_once();
    d.drain_some(static_cast<std::size_t>(-1));
    const auto step1 = Clock::now();
    lat.step.add(ns_between(step0, step1));
    const std::int64_t t_ns = ns_between(sched.t0, step1);
    const std::uint64_t p = popped.value();
    for (std::uint64_t k = seen; k < p; ++k) {
      if (!order.empty() && k >= order.size()) {
        out.order_ok = false;
        break;
      }
      const std::uint64_t idx = order.empty() ? k : order[k];
      const std::int64_t due_ns = sched.due_ns(idx);
      if (due_ns < warm_ns) continue;
      const std::int64_t ns = t_ns - due_ns;
      const auto wi = std::min<std::int64_t>(probe.windows - 1, (due_ns - warm_ns) / window_ns);
      lat.windows[w0 + static_cast<std::size_t>(wi)].add(ns);
      if (ns <= kSloNs) ++lat.met_in_windows;
    }
    seen = p;
    if (st == daemon::Daemon::PumpStatus::kDone) break;
  }
  d.finalize();
  pin_this_thread(cpus);
  done.store(true, std::memory_order_release);
  side.join();

  out.stats = d.stats();
  out.written = sender.written();
  lat.lag.merge(sender.lag());
  for (std::uint64_t i = 0; i < out.total; i += kBurst) {
    if (sched.due_ns(i) >= warm_ns) lat.due_in_windows += std::min(kBurst, out.total - i);
  }
  if (!order.empty()) out.order_ok = out.order_ok && order.size() == out.stats.sim.packets;
  out.rss_growth = peak - base;
  return out;
}

/// One diag line for a set of window values: median, count and range.
void print_spread(const std::string& name, const std::vector<double>& v, std::string_view unit) {
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  char note[96];
  std::snprintf(note, sizeof(note), "windows=%zu min=%.6g max=%.6g", v.size(),
                v.empty() ? 0.0 : *lo, v.empty() ? 0.0 : *hi);
  print_diag(name, median(v), unit, note);
}

void check_audit(Gate& gate, const char* phase, const daemon::DaemonStats& s) {
  const std::string audit = daemon::audit_daemon_conservation(s);
  gate.check(audit.empty(), std::string(phase) + " conservation: " + audit);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  std::signal(SIGPIPE, SIG_IGN);
  const Workload& w = *a.workload;
  print_header(a, "bench_e2e");

  const traffic::Trace trace = make_trace(w, a.seed, a.smoke);
  const Feed feed(w, trace, a.seed);
  const std::string path = work_path(a, w.wire == Wire::kPcap ? ".pcap" : ".csv");
  write_file(path, feed.pass0());
  std::printf("info records_per_pass %zu event_rate_pps %.6g leaps_dropped %zu\n",
              feed.records_per_pass(), feed.event_rate(), feed.leaps_dropped());

  // Set-up = lab + deploy + Daemon construction, repeated; the median counts.
  std::unique_ptr<Model> model;
  std::vector<double> setup;
  for (int rep = 0; rep < (a.smoke ? 1 : 3); ++rep) {
    const auto t0 = Clock::now();
    SetupTimes st;
    std::unique_ptr<Model> m = build_model(a.smoke, st);
    {
      obs::Registry reg;
      daemon::DaemonConfig cfg = serve_config(w, feed, &reg);
      cfg.source.path = path;
      const daemon::Daemon d(cfg, m->dm);
    }
    setup.push_back(seconds_between(t0, Clock::now()));
    print_diag("setup.lab_s", st.lab_s, "s");
    print_diag("setup.deploy_s", st.deploy_s, "s");
    if (model == nullptr) model = std::move(m);
  }

  Gate gate;
  const daemon::DaemonStats parity = parity_gate(w, *model, feed, path, gate);
  std::printf("digest %s\n", verdict_digest(parity.sim).c_str());

  // Rounds of closed loop then open loop: the host slows down in spells of
  // seconds, and spreading each metric over the run samples several of
  // them instead of betting the run on one.
  const int rounds = std::max(1, static_cast<int>(a.seconds / kRoundS));
  const double half_s = 0.5 * a.seconds / rounds;
  const double closed_warm = std::min(0.15, 0.2 * half_s);
  const int tp_windows = windows_in(half_s - closed_warm, kRateWindowS);
  Probe probe;
  probe.warm_s = 0.2 * half_s;
  probe.windows = windows_in(half_s - probe.warm_s, kLatencyWindowS);
  probe.window_s = (half_s - probe.warm_s) / probe.windows;
  // Every open loop serves the same records, so one reader+gate replay
  // gives the processing order of all of them.
  const std::vector<std::uint32_t> order =
      w.hostile ? admitted_order(feed, serve_config(w, feed, nullptr), probe.records())
                : std::vector<std::uint32_t>{};

  Tally tally;
  Latency lat;
  std::vector<double> window_pps;
  std::uint64_t reloads = 0, reloads_applied = 0;
  for (int r = 0; r < rounds; ++r) {
    const ClosedLoop cl = closed_loop(w, *model, feed, path, closed_warm, tp_windows,
                                      (half_s - closed_warm) / tp_windows);
    check_audit(gate, "closed loop", cl.stats);
    tally.add(cl.stats, cl.rss_growth);
    window_pps.insert(window_pps.end(), cl.window_pps.begin(), cl.window_pps.end());
    if (r == 0) {
      std::printf("digest closed_loop %s loops=%llu\n", verdict_digest(cl.stats.sim).c_str(),
                  static_cast<unsigned long long>(cl.stats.loops_completed));
    }

    const OpenLoopRun ol = open_loop(w, *model, feed, order, probe, lat);
    check_audit(gate, "open loop", ol.stats);
    tally.add(ol.stats, ol.rss_growth);
    gate.check(ol.written == ol.total, "open loop: the pipe did not take every record");
    if (w.hostile) {
      gate.check(ol.order_ok, "open loop: processing order differs from the reader+gate replay");
    } else {
      gate.check(ol.stats.sim.packets == ol.stats.ingest.accepted &&
                     ol.stats.ingest.accepted == ol.written,
                 "open loop: processed == accepted == records written does not hold");
    }
    if (r == 0) std::printf("digest open_loop %s\n", verdict_digest(ol.stats.sim).c_str());
    reloads += ol.reloads;
    reloads_applied += ol.stats.reloads_applied;
  }
  if (w.operator_load) {
    gate.check(reloads > 0 && reloads_applied == reloads,
               "open loop: every accepted reload must be applied");
    print_diag("reloads_applied", static_cast<double>(reloads_applied), "count");
    print_diag("daemon.scrape_p50_us", lat.scrape.quantile(0.5) / 1e3, "us",
               "samples=" + std::to_string(lat.scrape.count()));
  }

  LatencyHist all;
  std::vector<double> p50s, p95s, p99s;
  for (const auto& h : lat.windows) {
    all.merge(h);
    p50s.push_back(h.quantile(0.5) / 1e3);
    p95s.push_back(h.quantile(0.95) / 1e3);
    p99s.push_back(h.quantile(0.99) / 1e3);
  }
  print_spread("throughput.windows", window_pps, "pkt/s");
  print_spread("latency.window_p50_us", p50s, "us");
  print_spread("latency.window_p95_us", p95s, "us");
  print_spread("latency.window_p99_us", p99s, "us");
  const std::string samples = "samples=" + std::to_string(all.count());
  print_diag("latency.all_p50_us", all.quantile(0.5) / 1e3, "us", samples);
  print_diag("latency.all_p95_us", all.quantile(0.95) / 1e3, "us", samples);
  print_diag("latency.all_p99_us", all.quantile(0.99) / 1e3, "us", samples);
  print_diag("latency_p9999_us", all.quantile(0.9999) / 1e3, "us", samples);
  print_diag("latency_max_us", static_cast<double>(all.max()) / 1e3, "us", samples);
  print_diag("step.max_us", static_cast<double>(lat.step.max()) / 1e3, "us",
             "steps=" + std::to_string(lat.step.count()) +
                 " p9999=" + std::to_string(lat.step.quantile(0.9999) / 1e3));
  print_diag("send.lag_p99_us", lat.lag.quantile(0.99) / 1e3, "us",
             "writes=" + std::to_string(lat.lag.count()));
  print_diag("slo_miss_fraction",
             lat.due_in_windows > 0 ? 1.0 - static_cast<double>(lat.met_in_windows) /
                                                static_cast<double>(lat.due_in_windows)
                                    : 0.0,
             "ratio", "records due in the windows without a verdict within 1 ms");

  print_metric("throughput_pps", median(window_pps), "pkt/s");
  print_metric("latency_p50_us", quantile(p50s, kP50WindowQuantile), "us");
  print_metric("latency_p95_us", median(p95s), "us");
  print_metric("delivered_fraction",
               tally.offered > 0 ? static_cast<double>(tally.processed) /
                                       static_cast<double>(tally.offered)
                                 : 0.0,
               "ratio");
  print_metric("rss_mb", tally.rss_growth_mib, "MiB");
  print_metric("setup_s", median(setup), "s");

  std::filesystem::remove(path);
  return finish(gate, tally.offered, tally.unaccounted());
}
