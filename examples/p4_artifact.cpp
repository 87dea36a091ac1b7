// Generate the deployable switch artifact from a trained model: the P4-16
// program (parser/registers/tables/vote logic) and the control-plane table
// entries (one `table_add` per compiled whitelist rule). This mirrors the
// paper's published artifact — a P4 program plus its rule set — except that
// here both are *derived* from the trained model, so they can never drift
// out of sync with it.
//
// Usage: p4_artifact [output_dir]   (default: current directory)
#include <fstream>
#include <iostream>
#include <string>

#include "core/iguard.hpp"
#include "switchsim/flow_state.hpp"
#include "switchsim/p4_emit.hpp"
#include "trafficgen/benign.hpp"

using namespace iguard;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  ml::Rng rng(11);

  // Train a testbed-constrained model on synthetic benign traffic.
  traffic::BenignConfig bcfg;
  bcfg.flows = 2000;
  const auto trace = traffic::benign_trace(bcfg, rng);
  const std::size_t n = 32;
  const double delta = 10.0;
  const auto fl = switchsim::extract_switch_features(trace, n, delta);
  const auto pl = features::extract_packet_features(trace);

  core::IGuardConfig gcfg;
  gcfg.teacher.base = ml::testbed_autoencoder_config();
  gcfg.teacher.num_threads = 0;  // 0 = hardware concurrency
  gcfg.forest.num_threads = 0;
  core::IGuard guard(gcfg);
  guard.fit(fl.x, pl.x, rng);

  const switchsim::DeployedModel dm =
      core::build_bundle(1, guard.whitelist(), guard.quantizer(), guard.pl_model().whitelist(),
                         guard.pl_model().quantizer());

  switchsim::P4EmitOptions opts;
  opts.packet_threshold_n = n;
  opts.idle_timeout_us = static_cast<std::uint32_t>(delta * 1e6);

  const std::string program = switchsim::emit_p4_program(dm, opts);
  const std::string entries = switchsim::emit_table_entries(dm);

  const std::string p4_path = out_dir + "/iguard_generated.p4";
  const std::string entries_path = out_dir + "/iguard_entries.txt";
  std::ofstream(p4_path) << program;
  std::ofstream(entries_path) << entries;

  std::size_t entry_lines = 0;
  for (char c : entries) entry_lines += c == '\n' ? 1 : 0;
  std::cout << "wrote " << p4_path << " (" << program.size() << " bytes)\n"
            << "wrote " << entries_path << " (" << entry_lines << " table entries: "
            << guard.whitelist().total_rules() << " FL + "
            << guard.pl_model().whitelist().total_rules() << " PL rules)\n\n"
            << "--- program head ---\n";
  std::cout << program.substr(0, 600) << "...\n";
  return 0;
}
