// iguardd — serve a packet stream through the iGuard pipeline as a
// long-running process (DESIGN.md §4i).
//
//   iguardd --trace traces/campus.csv --loop 0 --metrics-port 9901
//   iguardd --config iguardd.conf
//   generator | iguardd --stdin --metrics-port 0
//   iguardd --gen-trace /tmp/sample.csv        # write a demo trace and exit
//
// Endpoints (127.0.0.1 only): GET /metrics (Prometheus text), GET /alerts
// (line-delimited alert log), GET /healthz. SIGTERM/SIGINT wind the serving
// loop down cleanly (gate flushed, ring drained, conservation audited);
// SIGHUP re-reads --config and hot-applies it through the hitless reload
// path. Exit status is 0 only when the end-to-end conservation audit holds.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/config_file.hpp"
#include "daemon/daemon.hpp"
#include "daemon/http.hpp"
#include "ml/rng.hpp"
#include "obs/metrics.hpp"

using namespace iguard;

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_reload = 0;

void on_stop_signal(int) { g_stop = 1; }
void on_hup_signal(int) { g_reload = 1; }

/// Mixed benign/malicious demo workload (the ingest benchmark's shape).
traffic::Trace make_demo_trace(std::size_t flows, std::size_t packets_per_flow) {
  ml::Rng rng(0x1A9E57ull);
  traffic::Trace t;
  for (std::size_t f = 0; f < flows; ++f) {
    const bool mal = f % 3 == 0;
    traffic::FiveTuple ft{0x0A000000u + static_cast<std::uint32_t>(f),
                          0x0B000000u + static_cast<std::uint32_t>(f % 13),
                          static_cast<std::uint16_t>(1024 + f % 40000), 443,
                          traffic::kProtoTcp};
    for (std::size_t i = 0; i < packets_per_flow; ++i) {
      traffic::Packet p;
      p.ts = 0.0008 * static_cast<double>(f) + 0.05 * static_cast<double>(i) +
             rng.uniform(0.0, 0.0005);
      p.ft = i % 2 == 0 ? ft : ft.reversed();
      p.length = mal ? static_cast<std::uint16_t>(1200 + rng.index(200))
                     : static_cast<std::uint16_t>(80 + rng.index(60));
      p.malicious = mal;
      t.packets.push_back(p);
    }
  }
  t.sort_by_time();
  return t;
}

/// Self-contained bootstrap model: a one-tree whitelist that flags flows
/// whose smallest packet exceeds 600 B, quantised over the 13 switch FL
/// features.
switchsim::DeployedModel bootstrap_model() {
  rules::Quantizer quant{16};
  ml::Matrix fake(2, switchsim::kSwitchFlFeatures);
  for (std::size_t j = 0; j < switchsim::kSwitchFlFeatures; ++j) {
    fake(0, j) = 0.0;
    fake(1, j) = 1e6;
  }
  quant.fit(fake);
  core::VoteWhitelist wl;
  wl.tree_count = 1;
  std::vector<rules::FieldRange> box(switchsim::kSwitchFlFeatures, {0, quant.domain_max()});
  box[5] = {0, quant.quantize_value(5, 600.0)};
  wl.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
  return core::build_bundle(1, std::move(wl), std::move(quant));
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--config <path>] [--trace <path>] [--stdin] [--loop N] [--follow]\n"
               "       [--shards K] [--metrics-port P] [--synchronous] [--gen-trace <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string trace_path;
  std::string gen_path;
  bool use_stdin = false;
  bool synchronous = false;
  bool have_loop = false, have_follow = false, have_shards = false;
  std::size_t loop_n = 1, shards_n = 1;
  bool follow_flag = false;
  int metrics_port = -1;  // -1 = no endpoint

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--config") {
      config_path = need("--config");
    } else if (a == "--trace") {
      trace_path = need("--trace");
    } else if (a == "--stdin") {
      use_stdin = true;
    } else if (a == "--loop") {
      loop_n = static_cast<std::size_t>(std::strtoull(need("--loop"), nullptr, 10));
      have_loop = true;
    } else if (a == "--follow") {
      follow_flag = true;
      have_follow = true;
    } else if (a == "--shards") {
      shards_n = static_cast<std::size_t>(std::strtoull(need("--shards"), nullptr, 10));
      have_shards = true;
    } else if (a == "--metrics-port") {
      metrics_port = static_cast<int>(std::strtol(need("--metrics-port"), nullptr, 10));
    } else if (a == "--synchronous") {
      synchronous = true;
    } else if (a == "--gen-trace") {
      gen_path = need("--gen-trace");
    } else {
      return usage(argv[0]);
    }
  }

  if (!gen_path.empty()) {
    const traffic::Trace t = make_demo_trace(120, 8);
    std::ofstream out(gen_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << gen_path << "\n";
      return 1;
    }
    out << io::trace_to_csv(t);
    std::cout << "wrote " << t.size() << " packets to " << gen_path << "\n";
    return 0;
  }

  obs::Registry metrics;
  daemon::DaemonConfig cfg;
  cfg.metrics = &metrics;
  // Serving defaults: a small flow threshold so short demo traces exercise
  // the FL path, and the hitless swap loop armed so SIGHUP reloads publish.
  cfg.pipeline.packet_threshold_n = 4;
  cfg.pipeline.swap.enabled = true;
  cfg.pipeline.swap.publish_after_extensions = 0;

  if (!config_path.empty()) {
    if (const std::string err = daemon::load_config_file(config_path, cfg); !err.empty()) {
      std::cerr << "config " << config_path << ": " << err << "\n";
      return 2;
    }
  }
  // Flags override the file.
  if (!trace_path.empty()) {
    cfg.source.kind = daemon::SourceConfig::Kind::kFile;
    cfg.source.path = trace_path;
  }
  if (use_stdin) {
    cfg.source.kind = daemon::SourceConfig::Kind::kFd;
    cfg.source.fd = 0;
  }
  if (have_loop) cfg.source.loops = loop_n;
  if (have_follow) cfg.source.follow = follow_flag;
  if (have_shards) cfg.shards = shards_n;

  if (const std::string err = daemon::validate_config(cfg); !err.empty()) {
    std::cerr << "config: " << err << "\n";
    return 2;
  }

  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGHUP, on_hup_signal);
  // A scraper that disconnects mid-response (or a broken stdout pipe) must
  // surface as EPIPE on the write, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  daemon::Daemon d(cfg, bootstrap_model());

  daemon::HttpServer http;
  if (metrics_port >= 0) {
    const std::string err =
        http.start(static_cast<std::uint16_t>(metrics_port), [&](const std::string& path) {
          daemon::HttpResponse r;
          if (path == "/metrics") {
            r.body = d.metrics_text();
          } else if (path == "/alerts") {
            r.body = d.alerts().render();
          } else if (path == "/healthz") {
            r.body = "ok\n";
          } else {
            r.status = 404;
            r.body = "not found\n";
          }
          return r;
        });
    if (!err.empty()) {
      std::cerr << "metrics endpoint: " << err << "\n";
      return 1;
    }
    std::cout << "metrics on http://127.0.0.1:" << http.port() << "/metrics\n" << std::flush;
  }

  std::atomic<bool> serving_done{false};
  std::thread server([&] {
    if (synchronous) {
      d.run_synchronous();
    } else {
      d.run();
    }
    serving_done.store(true, std::memory_order_release);
  });

  // Supervisor: translate process signals into daemon requests. With an
  // endpoint up, a finished finite source keeps the process alive serving
  // /metrics over the completed run until a stop signal arrives.
  for (;;) {
    if (g_stop != 0) {
      d.request_stop();
      break;
    }
    if (g_reload != 0) {
      g_reload = 0;
      if (config_path.empty()) {
        std::cerr << "SIGHUP ignored: no --config to re-read\n";
      } else {
        daemon::DaemonConfig next = d.config_snapshot();
        next.metrics = cfg.metrics;
        std::string err = daemon::load_config_file(config_path, next);
        if (err.empty()) err = d.request_reload(next);
        if (err.empty()) {
          std::cout << "reload accepted\n" << std::flush;
        } else {
          std::cerr << "reload rejected: " << err << "\n";
        }
      }
    }
    if (serving_done.load(std::memory_order_acquire) && metrics_port < 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  d.request_stop();
  server.join();
  http.stop();

  const daemon::DaemonStats s = d.stats();
  const std::string audit = daemon::audit_daemon_conservation(s);
  std::cout << "packets: offered=" << s.ingest.offered << " accepted=" << s.ingest.accepted
            << " quarantined=" << s.ingest.quarantined << " shed=" << s.gate.shed
            << " processed=" << s.sim.packets << " loops=" << s.loops_completed
            << " reloads=" << s.reloads_applied << "\n";
  std::cout << "alerts: emitted=" << d.alerts().emitted() << " installs="
            << d.alerts().total(daemon::AlertKind::kBlacklistInstall)
            << " publishes=" << d.alerts().total(daemon::AlertKind::kSwapPublish) << "\n";
  if (!s.container_ok) std::cout << "container error: " << s.container_error << "\n";
  if (!audit.empty()) {
    std::cerr << "conservation audit FAILED: " << audit << "\n";
    return 1;
  }
  std::cout << "conservation audit: ok\n";
  return 0;
}
