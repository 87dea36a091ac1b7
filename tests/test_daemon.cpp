// Serving-daemon tests (DESIGN.md §4i): byte sources and record framing
// against split reads, Prometheus exposition determinism, alert-stream
// conservation against the daemon's own counters, threaded-vs-synchronous
// parity across ring capacities, a parked producer woken at stop, hot
// reload through the hitless swap path, and the regression gates for the
// overload-gate token-precision fix, the ring close protocol, the chaos
// burst-multiplier validation, and a stop that cuts a record.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "daemon/config_file.hpp"
#include "daemon/daemon.hpp"
#include "daemon/http.hpp"
#include "daemon/source.hpp"
#include "deadline.hpp"
#include "obs_off.hpp"
#include "io/chaos.hpp"
#include "io/overload.hpp"
#include "ml/rng.hpp"
#include "obs/metrics.hpp"
#include "trafficgen/pcap_io.hpp"

namespace iguard::daemon {
namespace {

traffic::Packet mk(double ts, std::uint16_t len, std::uint32_t src, std::uint16_t sport,
                   bool mal = false) {
  traffic::Packet p;
  p.ts = ts;
  p.ft = {src, 0x0A0000FFu, sport, 443, traffic::kProtoTcp};
  p.length = len;
  p.malicious = mal;
  return p;
}

traffic::Trace make_trace(std::size_t flows, std::size_t packets_per_flow) {
  ml::Rng rng(0x1A9E57ull);
  traffic::Trace t;
  for (std::size_t f = 0; f < flows; ++f) {
    const bool mal = f % 3 == 0;
    for (std::size_t i = 0; i < packets_per_flow; ++i) {
      t.packets.push_back(mk(0.0008 * static_cast<double>(f) + 0.05 * static_cast<double>(i) +
                                 rng.uniform(0.0, 0.0005),
                             mal ? static_cast<std::uint16_t>(1200 + rng.index(200))
                                 : static_cast<std::uint16_t>(80 + rng.index(60)),
                             0x0A000000u + static_cast<std::uint32_t>(f),
                             static_cast<std::uint16_t>(1024 + f), mal));
    }
  }
  t.sort_by_time();
  return t;
}

/// One-tree whitelist over the switch FL features (the benchmark's
/// bootstrap): small packets pass, large ones are flagged.
struct Model {
  rules::Quantizer quant{16};
  core::VoteWhitelist wl;
  switchsim::DeployedModel dm;

  Model() {
    ml::Matrix fake(2, switchsim::kSwitchFlFeatures);
    for (std::size_t j = 0; j < switchsim::kSwitchFlFeatures; ++j) {
      fake(0, j) = 0.0;
      fake(1, j) = 1e6;
    }
    quant.fit(fake);
    wl.tree_count = 1;
    std::vector<rules::FieldRange> box(switchsim::kSwitchFlFeatures, {0, quant.domain_max()});
    box[5] = {0, quant.quantize_value(5, 600.0)};
    wl.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
    dm.fl_tables = &wl;
    dm.fl_quantizer = &quant;
  }
};

/// Write `text` to a unique temp file and return its path.
std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

DaemonConfig base_config(const std::string& trace_path) {
  DaemonConfig cfg;
  cfg.source.path = trace_path;
  cfg.pipeline.packet_threshold_n = 4;
  return cfg;
}

std::string strip_timing(const std::string& text) {
  std::string out;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t eol = text.find('\n', at);
    if (eol == std::string::npos) eol = text.size() - 1;
    const std::string_view line(text.data() + at, eol - at);
    if (line.find("iguard_timing_") == std::string_view::npos) {
      out.append(line);
      out.push_back('\n');
    }
    at = eol + 1;
  }
  return out;
}

// --- satellite regressions --------------------------------------------------

// Token counting must not freeze when (elapsed * rate) crosses the double
// precision plateau at 2^53: after a long idle gap the gate rebases its
// event clock at the idle->busy edge, so per-packet token increments stay
// exact. Against a fixed t0 the increments fall below one ULP and the gate
// sheds everything it should have drained.
TEST(OverloadGateLongHorizon, TokensKeepFlowingPastThePrecisionPlateau) {
  io::OverloadConfig oc;
  oc.enabled = true;
  oc.queue_capacity = 4;
  oc.drain_rate_pps = 1e6;
  io::OverloadGate gate(oc);
  std::vector<traffic::Packet> out;

  gate.offer(mk(0.0, 100, 1, 1), out);  // starts the event clock at t0 = 0

  // 1e10 s later, (ts - t0) * rate = 1e16 > 2^53: each 1-token step is
  // below one ULP of the product, so a fixed-t0 gate stops draining.
  const double base = 1e10;
  for (int i = 0; i < 200; ++i) {
    gate.offer(mk(base + 1e-6 * i, 100, 2, static_cast<std::uint16_t>(i)), out);
  }
  gate.flush(out);

  EXPECT_EQ(gate.stats().shed, 0u);
  EXPECT_TRUE(gate.stats().conserved());
  EXPECT_EQ(out.size(), 201u);
}

// A producer that stops early (truncated source, shutdown) must end the
// pump via the ring's close signal instead of live-locking the consumer.
TEST(RingPump, TruncatedProducerEndsThePump) {
  const traffic::Trace t = make_trace(8, 8);
  io::RingPumpStats rs;
  const traffic::Trace out = io::pump_through_ring(t, 8, rs, 32);
  EXPECT_EQ(rs.pushed, 32u);
  EXPECT_EQ(rs.popped, 32u);
  ASSERT_EQ(out.size(), 32u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.packets[i].ts, t.packets[i].ts) << i;
  }
}

TEST(RingPump, FullTraceRoundTripsUnchanged) {
  const traffic::Trace t = make_trace(6, 6);
  io::RingPumpStats rs;
  const traffic::Trace out = io::pump_through_ring(t, 4, rs);
  EXPECT_EQ(rs.pushed, t.size());
  EXPECT_EQ(rs.popped, t.size());
  EXPECT_EQ(out.packets.size(), t.packets.size());
}

// Non-finite / negative / absurd burst multipliers are rejected as config
// errors before the uint64 copy-count cast (which would be UB).
TEST(ChaosBurstValidation, RejectsUncastableMultipliers) {
  const std::string csv = io::trace_to_csv(make_trace(3, 3));
  for (const double bad :
       {std::nan(""), std::numeric_limits<double>::infinity(), -2.0, 1e18}) {
    switchsim::FaultConfig fc;
    fc.bursts.push_back({0.0, 1.0, bad});
    EXPECT_FALSE(switchsim::validate_config(fc).empty()) << bad;
    io::ChaosStats cs;
    try {
      io::mangle_csv(csv, fc, 16, cs);
      FAIL() << "mangle_csv accepted burst multiplier " << bad;
    } catch (const switchsim::ConfigError& e) {
      EXPECT_EQ(e.structure(), "FaultConfig");
      EXPECT_EQ(e.field(), "bursts.multiplier");
    }
  }
  // Sub-unit multipliers stay legal: burst_multiplier_at clamps them to 1.
  switchsim::FaultConfig ok;
  ok.bursts.push_back({0.0, 1.0, 0.25});
  EXPECT_TRUE(switchsim::validate_config(ok).empty());
}

// --- record framer ----------------------------------------------------------

TEST(RecordFramer, ReassemblesCsvRecordsAcrossArbitrarySplits) {
  const traffic::Trace t = make_trace(5, 4);
  const std::string csv = io::trace_to_csv(t);
  RecordFramer framer(1 << 20);
  std::string batch;
  std::size_t records = 0;
  std::string reassembled;
  bool header_counted = false;
  for (std::size_t at = 0; at < csv.size(); at += 7) {
    framer.feed(std::string_view(csv).substr(at, 7));
    std::size_t n = 0;
    while ((n = framer.take_batch(batch, 3)) > 0) {
      EXPECT_LE(n, 3u);
      // Every batch is stand-alone: header line + complete records.
      EXPECT_EQ(batch.compare(0, batch.find('\n') + 1, csv, 0, csv.find('\n') + 1), 0);
      if (!header_counted) {
        reassembled += batch;
        header_counted = true;
      } else {
        reassembled += batch.substr(batch.find('\n') + 1);
      }
      records += n;
    }
  }
  std::string tail;
  framer.take_tail(tail);
  EXPECT_EQ(records, t.size());
  EXPECT_EQ(reassembled, csv);  // nothing lost, duplicated, or reordered
}

TEST(RecordFramer, OversizedPcapLengthIsFatalNotGuessed) {
  std::string bytes;
  const std::uint32_t magic = traffic::kPcapMagicLE;
  bytes.append(reinterpret_cast<const char*>(&magic), 4);
  bytes.append(20, '\0');  // rest of the global header
  // Record header whose incl_len (offset 8) claims 2 GiB.
  std::string rec(16, '\0');
  const std::uint32_t incl = 0x80000000u;
  rec.replace(8, 4, reinterpret_cast<const char*>(&incl), 4);
  bytes += rec;

  RecordFramer framer(1 << 20);
  framer.feed(bytes);
  std::string batch;
  EXPECT_EQ(framer.take_batch(batch, 8), 0u);
  EXPECT_TRUE(framer.fatal());
}

// --- byte sources -----------------------------------------------------------

// Reads land in the source's own buffer and only the bytes read are
// appended: short reads, reads split at every size and empty polls at EOF
// reproduce the file byte for byte and never pad or clobber `out`.
TEST(FileTail, ShortSplitAndEmptyReadsAreByteIdentical) {
  const std::string csv = io::trace_to_csv(make_trace(9, 5));
  const std::string path = write_temp("file_tail_reads.csv", csv);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  csv.size() - 1, csv.size(), std::size_t{64 * 1024}}) {
    SCOPED_TRACE(chunk);
    FileTail src;
    ASSERT_TRUE(src.open(path));
    std::string out = "prefix|";
    std::size_t n = 0;
    while ((n = src.read_some(out, chunk)) > 0) EXPECT_LE(n, chunk);
    EXPECT_EQ(src.read_some(out, chunk), 0u);  // a second empty poll at EOF
    EXPECT_EQ(out, "prefix|" + csv);
    // Looped replay: the next pass reads the same bytes again.
    src.rewind();
    std::string again;
    while (src.read_some(again, chunk) > 0) {
    }
    EXPECT_EQ(again, csv);
  }
}

TEST(FdSource, ShortSplitAndEmptyReadsAreByteIdentical) {
  const std::string csv = io::trace_to_csv(make_trace(9, 5));
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL) | O_NONBLOCK), 0);
  FdSource src(fds[0]);
  std::string out = "prefix|";
  EXPECT_EQ(src.read_some(out, 64 * 1024), 0u);  // empty pipe: nothing right now
  EXPECT_FALSE(src.eof());
  EXPECT_EQ(out, "prefix|");
  // Write in uneven pieces, read with a small and then a large chunk.
  std::size_t at = 0;
  for (const std::size_t piece : {std::size_t{3}, std::size_t{100}, std::size_t{1}}) {
    ASSERT_EQ(::write(fds[1], csv.data() + at, piece), static_cast<ssize_t>(piece));
    at += piece;
    while (src.read_some(out, 13) > 0) {
    }
    EXPECT_EQ(out, "prefix|" + csv.substr(0, at));
  }
  ASSERT_EQ(::write(fds[1], csv.data() + at, csv.size() - at),
            static_cast<ssize_t>(csv.size() - at));
  ::close(fds[1]);
  while (!src.eof()) src.read_some(out, 64 * 1024);
  EXPECT_EQ(out, "prefix|" + csv);
  EXPECT_EQ(src.read_some(out, 64 * 1024), 0u);
  EXPECT_EQ(out, "prefix|" + csv);
  ::close(fds[0]);
}

// --- Prometheus exposition --------------------------------------------------

TEST(Prometheus, DeterministicRenderingAndNameSanitisation) {
  obs::Registry reg;
  reg.counter("daemon.pushed").inc(5);
  reg.counter("pipeline.shard0.path.red").inc(2);
  reg.gauge("weird-key.with:colon").set(1.25);
  const double bounds[] = {1.0, 10.0};
  reg.histogram("timing.pipeline.process_ns", bounds).record(3.0);

  const std::string a = obs::to_prometheus(reg.snapshot());
  const std::string b = obs::to_prometheus(reg.snapshot());
  EXPECT_EQ(a, b);  // byte-identical across renders of the same state

  IGUARD_SKIP_IF_OBS_OFF();
  EXPECT_NE(a.find("# TYPE iguard_daemon_pushed untyped\niguard_daemon_pushed 5\n"),
            std::string::npos);
  EXPECT_NE(a.find("iguard_pipeline_shard0_path_red 2\n"), std::string::npos);
  // '-' and '.' sanitise to '_'; ':' is legal in the exposition format.
  EXPECT_NE(a.find("iguard_weird_key_with:colon 1.25\n"), std::string::npos);
  // Wall-clock instruments keep their "timing." namespace, prefixed.
  EXPECT_NE(a.find("iguard_timing_pipeline_process_ns"), std::string::npos);
  EXPECT_EQ(strip_timing(a).find("iguard_timing_"), std::string::npos);
}

TEST(Prometheus, SeriesRenderAsLabelledSamples) {
  IGUARD_SKIP_IF_OBS_OFF();
  obs::Registry reg;
  obs::Series s = reg.series("daemon.loop_packets", 8, 1);
  s.observe(10.0);
  s.observe(11.0);
  const std::string text = obs::to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE iguard_daemon_loop_packets untyped"), std::string::npos);
  EXPECT_NE(text.find("iguard_daemon_loop_packets{event=\""), std::string::npos);
  EXPECT_NE(text.find("} 10\n"), std::string::npos);
  EXPECT_NE(text.find("} 11\n"), std::string::npos);
}

// --- daemon end-to-end ------------------------------------------------------

TEST(Daemon, ServesLoopedTraceWithConservationAndDeterminism) {
  Model model;
  const std::string path =
      write_temp("daemon_loop.csv", io::trace_to_csv(make_trace(24, 6)));

  const auto run_once = [&](obs::Registry& reg) {
    DaemonConfig cfg = base_config(path);
    cfg.source.loops = 3;
    cfg.shards = 2;
    cfg.overload.enabled = true;
    cfg.overload.queue_capacity = 64;
    cfg.overload.drain_rate_pps = 200000.0;
    cfg.metrics = &reg;
    Daemon d(cfg, model.dm);
    d.run_synchronous();
    return std::make_pair(d.stats(), d.alerts().render());
  };

  obs::Registry reg_a, reg_b;
  const auto [sa, alerts_a] = run_once(reg_a);
  const auto [sb, alerts_b] = run_once(reg_b);

  EXPECT_EQ(audit_daemon_conservation(sa), "");
  EXPECT_EQ(sa.loops_completed, 3u);
  EXPECT_EQ(sa.ingest.offered, 3u * 24u * 6u);
  EXPECT_GT(sa.sim.flows_classified, 0u);

  // Two identical runs: identical stats, identical alert stream, identical
  // exposition modulo "timing." instruments.
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(alerts_a, alerts_b);
  EXPECT_EQ(strip_timing(obs::to_prometheus(reg_a.snapshot())),
            strip_timing(obs::to_prometheus(reg_b.snapshot())));
}

// The ring only adds concurrency: at every capacity — 2 parks the producer
// on nearly every batch, 1024 holds whole batches — and shard count, the
// threaded run equals the synchronous one in stats and in every non-timing
// byte of the exposition.
TEST(Daemon, ThreadedRunMatchesSynchronousRun) {
  Model model;
  const std::string path =
      write_temp("daemon_threaded.csv", io::trace_to_csv(make_trace(20, 6)));

  for (const std::size_t capacity : {std::size_t{2}, std::size_t{64}, std::size_t{1024}}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE("ring_capacity=" + std::to_string(capacity) +
                   " shards=" + std::to_string(shards));
      const auto run_mode = [&](bool threaded, obs::Registry& reg) {
        DaemonConfig cfg = base_config(path);
        cfg.source.loops = 2;
        cfg.source.chunk_bytes = 1024;  // many batches per pass
        cfg.shards = shards;
        cfg.ring_capacity = capacity;
        cfg.metrics = &reg;
        Daemon d(cfg, model.dm);
        if (threaded) {
          d.run();
        } else {
          d.run_synchronous();
        }
        return d.stats();
      };

      obs::Registry reg_threaded, reg_sync;
      const DaemonStats threaded = run_mode(true, reg_threaded);
      const DaemonStats synchronous = run_mode(false, reg_sync);
      EXPECT_EQ(audit_daemon_conservation(threaded), "");
      EXPECT_EQ(threaded, synchronous);
      EXPECT_EQ(strip_timing(obs::to_prometheus(reg_threaded.snapshot())),
                strip_timing(obs::to_prometheus(reg_sync.snapshot())));
    }
  }
}

// A stop finds the producer parked on a full ring (capacity 2, a source
// that never ends): the consumer's stop-time drain must wake it so it can
// flush, close and let run() return. The hand-off counts are visible, under
// timing.* only.
TEST(Daemon, StopWakesAProducerParkedOnAFullRing) {
  Model model;
  // One malformed record per pass makes each pass raise one quarantine
  // alert: a pass counter that needs no instrument, so the test waits on
  // the same signal with -DIGUARD_OBS_OFF.
  const std::string path = write_temp(
      "daemon_parked.csv", io::trace_to_csv(make_trace(24, 8)) + "not,a,packet\n");
  obs::Registry reg;
  DaemonConfig cfg = base_config(path);
  cfg.source.loops = 0;  // forever — only request_stop can end it
  cfg.ring_capacity = 2;
  cfg.metrics = &reg;
  Daemon d(cfg, model.dm);
  const obs::Counter waits = reg.counter("timing.daemon.producer_waits");

  // Each pass pushes 192 packets through the two-slot ring, so the
  // producer parks on it many times a pass.
  run_within_deadline(std::chrono::seconds(60), "stop with a parked producer", [&] {
    std::thread server([&] { d.run(); });
    while (d.alerts().total(AlertKind::kQuarantine) < 3 || (kObsOn && waits.value() < 50)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    d.request_stop();
    server.join();
  });

  const DaemonStats s = d.stats();
  EXPECT_EQ(audit_daemon_conservation(s), "");
  EXPECT_GE(s.ingest.quarantined, 3u);  // three passes were served
  EXPECT_GT(s.sim.packets, 0u);
  EXPECT_EQ(strip_timing(d.metrics_text()).find("producer_waits"), std::string::npos);
  if (kObsOn) {
    EXPECT_GE(waits.value(), 50u);
  }
}

// Regression: a stop mid-file handed the framer's partial record — the head
// of a record the last read cut — to the reader, which quarantined a clean
// source's record as truncated. Reads shorter than one record leave such a
// head pending after every pump.
TEST(Daemon, StopMidRecordDoesNotQuarantineTheCutRecord) {
  Model model;
  const traffic::Trace t = make_trace(12, 6);
  const std::string path = write_temp("daemon_stop_mid_record.csv", io::trace_to_csv(t));
  DaemonConfig cfg = base_config(path);
  cfg.source.chunk_bytes = 5;  // every CSV record is longer than this
  Daemon d(cfg, model.dm);

  // Serve until a few records are through, then one more short read: the
  // framer now holds the first 5..9 bytes of the next record.
  while (d.stats().ingest.offered < 10) {
    d.pump_once();
    d.drain_some(static_cast<std::size_t>(-1));
  }
  d.pump_once();
  d.request_stop();
  for (;;) {
    const Daemon::PumpStatus st = d.pump_once();
    d.drain_some(static_cast<std::size_t>(-1));
    if (st == Daemon::PumpStatus::kDone) break;
  }
  d.finalize();

  const DaemonStats s = d.stats();
  EXPECT_EQ(s.ingest.quarantined, 0u);
  EXPECT_EQ(audit_daemon_conservation(s), "");
  EXPECT_GE(s.ingest.offered, 10u);
  EXPECT_LT(s.ingest.offered, t.size());  // the stop did land mid-pass
  EXPECT_EQ(s.sim.packets, s.ingest.offered);
}

TEST(Daemon, AlertTotalsMatchTheCountersTheyAnnounce) {
  Model model;
  // A trace with garbage lines (quarantine) plus a drain rate low enough to
  // shed: every alert kind must reconcile with the daemon's own accounting.
  std::string csv = io::trace_to_csv(make_trace(30, 6));
  csv += "garbage,line,not,a,packet\n";
  csv += "1,2,3\n";
  const std::string path = write_temp("daemon_alerts.csv", csv);

  DaemonConfig cfg = base_config(path);
  cfg.source.loops = 2;
  cfg.overload.enabled = true;
  cfg.overload.queue_capacity = 8;
  cfg.overload.drain_rate_pps = 100.0;  // well under the offered rate: sheds
  cfg.alert_check_every = 16;
  Daemon d(cfg, model.dm);
  d.run_synchronous();

  const DaemonStats s = d.stats();
  EXPECT_EQ(audit_daemon_conservation(s), "");
  EXPECT_GT(s.ingest.quarantined, 0u);
  EXPECT_GT(s.gate.shed, 0u);
  EXPECT_EQ(d.alerts().total(AlertKind::kQuarantine), s.ingest.quarantined);
  EXPECT_EQ(d.alerts().total(AlertKind::kShed), s.gate.shed);
  EXPECT_EQ(d.alerts().total(AlertKind::kBlacklistInstall),
            static_cast<std::uint64_t>(s.sim.faults.installs_applied));
  EXPECT_EQ(d.alerts().total(AlertKind::kSwapPublish),
            static_cast<std::uint64_t>(s.sim.swap.publishes));
  // The quarantined records themselves are retained for inspection.
  EXPECT_GT(d.quarantine().size(), 0u);
}

TEST(Daemon, HotReloadMidStreamKeepsEveryPacket) {
  Model model;
  const std::string path =
      write_temp("daemon_reload.csv", io::trace_to_csv(make_trace(24, 8)));

  DaemonConfig cfg = base_config(path);
  cfg.source.loops = 2;
  cfg.shards = 2;
  // Small chunks keep the source mid-pass across several pump_once() calls,
  // so the reload genuinely lands mid-stream.
  cfg.source.chunk_bytes = 512;
  cfg.overload.enabled = true;
  cfg.overload.queue_capacity = 64;
  cfg.overload.drain_rate_pps = 150000.0;
  cfg.pipeline.swap.enabled = true;
  cfg.pipeline.swap.publish_after_extensions = 0;
  Daemon d(cfg, model.dm);

  // Serve part of the stream, reload with a different drain rate, continue.
  for (int i = 0; i < 4; ++i) {
    d.pump_once();
    d.drain_some(static_cast<std::size_t>(-1));
  }
  DaemonConfig next = d.config_snapshot();
  next.overload.drain_rate_pps = 400000.0;
  EXPECT_EQ(d.request_reload(next), "");
  for (;;) {
    const Daemon::PumpStatus st = d.pump_once();
    d.drain_some(static_cast<std::size_t>(-1));
    if (st == Daemon::PumpStatus::kDone) break;
  }
  d.finalize();

  const DaemonStats s = d.stats();
  EXPECT_EQ(audit_daemon_conservation(s), "");  // no loss across the reload
  EXPECT_EQ(s.reloads_applied, 1u);
  EXPECT_EQ(s.reloads_rejected, 0u);
  EXPECT_EQ(d.config_snapshot().overload.drain_rate_pps, 400000.0);
  // The model half went through each shard's hitless swap loop and the
  // rebuilt version was published.
  EXPECT_EQ(s.sim.swap.operator_requests, 2u);
  EXPECT_GT(s.sim.swap.publishes, 0u);
  EXPECT_EQ(d.alerts().total(AlertKind::kReload), 1u);
  EXPECT_GT(d.alerts().total(AlertKind::kSwapPublish), 0u);
}

TEST(Daemon, StructuralReloadIsRejectedWithAReason) {
  Model model;
  const std::string path =
      write_temp("daemon_reject.csv", io::trace_to_csv(make_trace(6, 4)));
  DaemonConfig cfg = base_config(path);
  Daemon d(cfg, model.dm);

  DaemonConfig next = d.config_snapshot();
  next.shards = 4;
  const std::string reason = d.request_reload(next);
  EXPECT_NE(reason.find("shards"), std::string::npos);
  EXPECT_NE(reason.find("restart"), std::string::npos);

  DaemonConfig bad = d.config_snapshot();
  bad.ring_capacity = 0;
  EXPECT_FALSE(d.request_reload(bad).empty());

  // An oversized table is refused by validation before it could allocate.
  DaemonConfig huge = d.config_snapshot();
  huge.pipeline.flow_slots = std::size_t{1} << 40;
  EXPECT_EQ(d.request_reload(huge).rfind("pipeline.flow_slots: ", 0), 0u);

  d.run_synchronous();
  const DaemonStats s = d.stats();
  EXPECT_EQ(s.reloads_applied, 0u);
  EXPECT_EQ(s.reloads_rejected, 3u);
  EXPECT_EQ(audit_daemon_conservation(s), "");
}

TEST(Daemon, InvalidConfigThrowsStructuredError) {
  Model model;
  DaemonConfig cfg;  // no source.path
  try {
    Daemon d(cfg, model.dm);
    FAIL() << "constructor accepted an empty source path";
  } catch (const switchsim::ConfigError& e) {
    EXPECT_EQ(e.structure(), "DaemonConfig");
    EXPECT_EQ(e.field(), "source.path");
  }
  cfg.source.path = "x.csv";
  cfg.shards = 0;
  EXPECT_EQ(validate_config(cfg).substr(0, 6), "shards");
  // Pipeline fields are checked here, not left to abort inside a shard's
  // FlowStore or to overflow the idle-timeout µs cast per packet.
  cfg.shards = 1;
  cfg.pipeline.flow_slots = 0;
  EXPECT_EQ(validate_config(cfg).rfind("pipeline.flow_slots: ", 0), 0u) << validate_config(cfg);
  cfg.pipeline.flow_slots = 16;
  for (const double bad : {std::numeric_limits<double>::infinity(), 1e14}) {
    cfg.pipeline.idle_timeout_delta = bad;
    EXPECT_EQ(validate_config(cfg).rfind("pipeline.idle_timeout_delta: ", 0), 0u)
        << validate_config(cfg);
  }
  // Both tables are allocated whole at construction: a 2^40 entry request
  // must be a structured config error, not an uncaught std::bad_alloc.
  cfg.pipeline.idle_timeout_delta = 10.0;
  cfg.pipeline.flow_slots = std::size_t{1} << 40;
  EXPECT_EQ(validate_config(cfg).rfind("pipeline.flow_slots: ", 0), 0u) << validate_config(cfg);
  cfg.pipeline.flow_slots = 16;
  cfg.pipeline.blacklist_capacity = std::size_t{1} << 40;
  EXPECT_EQ(validate_config(cfg).rfind("pipeline.blacklist_capacity: ", 0), 0u)
      << validate_config(cfg);
  try {
    Daemon d(cfg, model.dm);
    FAIL() << "constructor accepted a 2^40-entry blacklist";
  } catch (const switchsim::ConfigError& e) {
    EXPECT_EQ(e.structure(), "DaemonConfig");
    EXPECT_EQ(e.field(), "pipeline.blacklist_capacity");
  }
}

// Regression: the reader numbers records from 0 in every batch, and the
// daemon copied those batch-relative indices into its stream-long ring — a
// malformed record 20 records into the stream, read in batches of 8, came
// back as record 4.
TEST(Daemon, QuarantineIndexCountsRecordsSinceStart) {
  Model model;
  std::string csv = io::trace_to_csv(make_trace(6, 5));  // 30 records
  std::size_t at = 0;
  for (int line = 0; line < 21; ++line) at = csv.find('\n', at) + 1;  // record 20
  csv.insert(at, "zz");  // its ts no longer parses
  const std::string path = write_temp("daemon_quarantine_index.csv", csv);
  DaemonConfig cfg = base_config(path);
  cfg.max_batch_records = 8;
  Daemon d(cfg, model.dm);
  d.run_synchronous();

  ASSERT_EQ(d.quarantine().size(), 1u);
  EXPECT_EQ(d.quarantine()[0].record_index, 20u);
  EXPECT_EQ(d.quarantine()[0].category, io::IngestErrorCategory::kBadField);
  EXPECT_GT(d.stats().batches, 3u);
  EXPECT_EQ(audit_daemon_conservation(d.stats()), "");
}

// reader.limits.max_records caps what one reader call accepts. The daemon
// calls the reader once per batch, so the cap applied per batch: 5 per batch
// of 8 accepted 20 of 30 records where the stream-level replay accepts 5.
// A daemon rejects the key instead, at construction and on reload.
TEST(Daemon, RejectsAReaderRecordBudget) {
  Model model;
  const std::string path =
      write_temp("daemon_record_budget.csv", io::trace_to_csv(make_trace(6, 5)));
  DaemonConfig cfg = base_config(path);
  cfg.max_batch_records = 8;
  cfg.reader.limits.max_records = 5;
  EXPECT_EQ(validate_config(cfg).rfind("reader.limits.max_records: ", 0), 0u)
      << validate_config(cfg);
  try {
    Daemon d(cfg, model.dm);
    FAIL() << "constructor accepted reader.limits.max_records = 5";
  } catch (const switchsim::ConfigError& e) {
    EXPECT_EQ(e.structure(), "DaemonConfig");
    EXPECT_EQ(e.field(), "reader.limits.max_records");
  }

  cfg.reader.limits.max_records = 0;
  Daemon d(cfg, model.dm);
  DaemonConfig next = d.config_snapshot();
  next.reader.limits.max_records = 5;
  EXPECT_EQ(d.request_reload(next).rfind("reader.limits.max_records: ", 0), 0u);
  d.run_synchronous();
  EXPECT_EQ(d.stats().ingest.accepted, 30u);
  EXPECT_EQ(d.stats().reloads_rejected, 1u);
}

TEST(Daemon, RequestStopDrainsAndAuditsClean) {
  Model model;
  const std::string path =
      write_temp("daemon_stop.csv", io::trace_to_csv(make_trace(16, 6)));
  DaemonConfig cfg = base_config(path);
  cfg.source.loops = 0;  // forever — only request_stop can end it
  Daemon d(cfg, model.dm);

  for (int i = 0; i < 8; ++i) {
    d.pump_once();
    d.drain_some(static_cast<std::size_t>(-1));
  }
  d.request_stop();
  for (;;) {
    const Daemon::PumpStatus st = d.pump_once();
    d.drain_some(static_cast<std::size_t>(-1));
    if (st == Daemon::PumpStatus::kDone) break;
  }
  d.finalize();
  const DaemonStats s = d.stats();
  EXPECT_EQ(audit_daemon_conservation(s), "");
  EXPECT_GT(s.sim.packets, 0u);
}

// --- config file ------------------------------------------------------------

TEST(ConfigFile, ParsesKnobsAndRejectsTypos) {
  DaemonConfig cfg;
  const std::string text =
      "# serving config\n"
      "trace = /tmp/t.csv\n"
      "source.loops = 0\n"
      "shards = 2\n"
      "overload.enabled = true\n"
      "overload.policy = flow_hash\n"
      "overload.drain_rate_pps = 50000\n"
      "pipeline.swap.enabled = on\n"
      "alert_check_every = 64\n";
  EXPECT_EQ(parse_config_text(text, cfg), "");
  EXPECT_EQ(cfg.source.path, "/tmp/t.csv");
  EXPECT_EQ(cfg.source.loops, 0u);
  EXPECT_EQ(cfg.shards, 2u);
  EXPECT_TRUE(cfg.overload.enabled);
  EXPECT_EQ(cfg.overload.policy, io::ShedPolicy::kFlowHash);
  EXPECT_EQ(cfg.overload.drain_rate_pps, 50000.0);
  EXPECT_TRUE(cfg.pipeline.swap.enabled);
  EXPECT_EQ(cfg.alert_check_every, 64u);

  DaemonConfig c2;
  EXPECT_EQ(parse_config_text("shards = 2\nshardz = 3\n", c2),
            "line 2: unknown key 'shardz'");
  EXPECT_EQ(parse_config_text("shards = two\n", c2),
            "line 1: value 'two' for shards (want uint)");
  EXPECT_EQ(parse_config_text("shards\n", c2), "line 1: expected key = value");
  // pipeline.batch_size is not a setting: a config naming it must fail, not
  // be silently ignored.
  EXPECT_EQ(parse_config_text("pipeline.batch_size = 32\n", c2),
            "line 1: unknown key 'pipeline.batch_size'");
}

// --- http endpoint ----------------------------------------------------------

TEST(HttpServer, ServesHandlerBodiesOnLoopback) {
  HttpServer srv;
  ASSERT_EQ(srv.start(0, [](const std::string& p) {
    HttpResponse r;
    if (p == "/metrics") {
      r.body = "iguard_up 1\n";
    } else {
      r.status = 404;
      r.body = "nope\n";
    }
    return r;
  }),
            "");
  ASSERT_GT(srv.port(), 0);

  // Tiny loopback client, enough to validate the response head + body.
  struct Client {
    static std::string fetch(std::uint16_t port, const std::string& path) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return {};
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return {};
      }
      const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
      (void)::write(fd, req.data(), req.size());
      std::string resp;
      char buf[512];
      ssize_t n = 0;
      while ((n = ::read(fd, buf, sizeof(buf))) > 0) resp.append(buf, n);
      ::close(fd);
      return resp;
    }
  };

  const std::string ok = Client::fetch(srv.port(), "/metrics");
  EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("\r\n\r\niguard_up 1\n"), std::string::npos);
  const std::string missing = Client::fetch(srv.port(), "/else");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
  EXPECT_EQ(srv.requests(), 2u);
  srv.stop();
  EXPECT_FALSE(srv.running());
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Regression: a peer that disconnects before reading the response used to
// raise SIGPIPE on the server's next write, whose default action terminates
// the whole process. The body is sized well past any socket buffer so the
// write genuinely hits the dead connection.
TEST(HttpServer, SurvivesPeerDisconnectMidResponse) {
  HttpServer srv;
  const std::string big(4u << 20, 'x');
  ASSERT_EQ(srv.start(0, [&](const std::string& p) {
    HttpResponse r;
    r.body = p == "/big" ? big : "ok\n";
    return r;
  }),
            "");

  const int fd = connect_loopback(srv.port());
  ASSERT_GE(fd, 0);
  const std::string req = "GET /big HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
  ::close(fd);  // walk away without reading the 4 MB response

  // The serving thread must still be alive and able to answer.
  const int fd2 = connect_loopback(srv.port());
  ASSERT_GE(fd2, 0);
  const std::string req2 = "GET /ping HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd2, req2.data(), req2.size(), 0), static_cast<ssize_t>(req2.size()));
  std::string resp;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(fd2, buf, sizeof(buf))) > 0) resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd2);
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("\r\n\r\nok\n"), std::string::npos);
  srv.stop();
}

// Regression: stop() used to block forever when a client connected and sent
// nothing — serve_loop sat in a timeout-less read() and never returned to
// accept(). The receive timeout bounds that wait.
TEST(HttpServer, StopReturnsDespiteIdleConnection) {
  HttpServer srv;
  ASSERT_EQ(srv.start(0, [](const std::string&) { return HttpResponse{}; }), "");

  const int fd = connect_loopback(srv.port());
  ASSERT_GE(fd, 0);
  // Give the serving thread a moment to accept and enter the head read.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  srv.stop();  // hung forever before the fix; now bounded by SO_RCVTIMEO
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(waited).count(), 5);
  EXPECT_FALSE(srv.running());
  ::close(fd);
}

// Regression: a reload accepted after a finite source completed was silently
// never applied — no pump/drain step runs again to reach the safe points, so
// reloads_applied stayed 0 with no kReload alert despite the "" acceptance.
TEST(Daemon, ReloadAfterSourceFinishedIsRejected) {
  Model model;
  const std::string path =
      write_temp("daemon_late_reload.csv", io::trace_to_csv(make_trace(6, 4)));
  DaemonConfig cfg = base_config(path);
  Daemon d(cfg, model.dm);
  d.run_synchronous();

  DaemonConfig next = d.config_snapshot();
  next.overload.drain_rate_pps = 123456.0;
  const std::string reason = d.request_reload(next);
  EXPECT_NE(reason.find("finished"), std::string::npos);
  EXPECT_NE(reason.find("restart"), std::string::npos);

  const DaemonStats s = d.stats();
  EXPECT_EQ(s.reloads_applied, 0u);
  EXPECT_EQ(s.reloads_rejected, 1u);
  EXPECT_EQ(audit_daemon_conservation(s), "");
}

}  // namespace
}  // namespace iguard::daemon
