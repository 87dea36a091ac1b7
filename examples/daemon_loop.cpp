// In-process tour of the serving daemon (DESIGN.md §4i): generate a small
// mixed trace, write it as CSV, and serve it through a Daemon in
// single-thread mode — source → framer → strict reader → overload gate →
// ring → 2 sharded pipelines — then print the Prometheus exposition, the
// alert stream, and the end-to-end conservation audit. No sockets, no
// signals: run_synchronous() is the deterministic loop the tests gate, and
// everything iguardd adds on top is signal/endpoint plumbing around the
// same object.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "daemon/daemon.hpp"
#include "ml/rng.hpp"
#include "obs/metrics.hpp"

using namespace iguard;

namespace {

traffic::Trace make_trace(std::size_t flows, std::size_t packets_per_flow) {
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

}  // namespace

int main() {
  // --- a trace on disk, as an operator would have ---------------------------
  const traffic::Trace trace = make_trace(60, 8);
  const std::string path = "daemon_loop_trace.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << io::trace_to_csv(trace);
  }

  // --- bootstrap model (the benchmark's one-tree whitelist) -----------------
  ml::Matrix fake(2, switchsim::kSwitchFlFeatures);
  for (std::size_t j = 0; j < switchsim::kSwitchFlFeatures; ++j) {
    fake(0, j) = 0.0;
    fake(1, j) = 1e6;
  }
  rules::Quantizer quant{16};
  quant.fit(fake);
  core::VoteWhitelist wl;
  wl.tree_count = 1;
  std::vector<rules::FieldRange> box(switchsim::kSwitchFlFeatures, {0, quant.domain_max()});
  box[5] = {0, quant.quantize_value(5, 600.0)};
  wl.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
  const switchsim::DeployedModel dm = core::build_bundle(1, wl, quant);

  // --- the daemon: loop the file three times through 2 shards ---------------
  obs::Registry metrics;
  daemon::DaemonConfig cfg;
  cfg.source.path = path;
  cfg.source.loops = 3;
  cfg.shards = 2;
  cfg.pipeline.packet_threshold_n = 4;
  cfg.pipeline.swap.enabled = true;
  cfg.pipeline.swap.publish_after_extensions = 0;
  cfg.overload.enabled = true;
  cfg.overload.queue_capacity = 256;
  cfg.overload.drain_rate_pps = 100000.0;
  cfg.metrics = &metrics;

  daemon::Daemon d(cfg, dm);

  // Hot-reload mid-build is exercised by the tests; here, stage one before
  // serving so the run demonstrates the reload path end to end.
  daemon::DaemonConfig next = cfg;
  next.overload.drain_rate_pps = 250000.0;
  const std::string rejected = d.request_reload(next);
  std::cout << "reload staged: " << (rejected.empty() ? "ok" : rejected) << "\n";

  d.run_synchronous();

  const daemon::DaemonStats s = d.stats();
  std::cout << "\n== run ==\n"
            << "offered " << s.ingest.offered << ", admitted " << s.gate.admitted << ", shed "
            << s.gate.shed << ", processed " << s.sim.packets << ", loops "
            << s.loops_completed << ", reloads " << s.reloads_applied << "\n"
            << "audit: "
            << (daemon::audit_daemon_conservation(s).empty() ? "ok"
                                                             : daemon::audit_daemon_conservation(s))
            << "\n";

  std::cout << "\n== alerts ==\n" << d.alerts().render();

  std::cout << "\n== /metrics (first lines) ==\n";
  const std::string text = d.metrics_text();
  std::size_t shown = 0, at = 0;
  while (shown < 12 && at < text.size()) {
    const std::size_t eol = text.find('\n', at);
    std::cout << text.substr(at, eol - at) << "\n";
    at = eol + 1;
    ++shown;
  }
  std::remove(path.c_str());
  return 0;
}
