#include "switchsim/p4_emit.hpp"

#include <sstream>

namespace iguard::switchsim {

namespace {

const char* kFlFieldNames[13] = {
    "pkt_count", "total_size", "mean_size", "std_size",  "var_size",
    "min_size",  "max_size",   "mean_ipd",  "min_ipd",   "var_ipd",
    "std_ipd",   "max_ipd",    "duration"};

const char* kPlFieldNames[4] = {"dst_port", "proto", "pkt_len", "ttl"};

void emit_header(std::ostringstream& os, const P4EmitOptions& o) {
  os << "// " << o.program_name << ".p4 — generated by iguard::switchsim::emit_p4_program.\n"
     << "// Whitelist tables, registers and thresholds reflect the trained model;\n"
     << "// regenerate after retraining. Do not edit by hand.\n"
     << "#include <core.p4>\n#include <v1model.p4>\n\n"
     << "typedef bit<32> ipv4_addr_t;\n"
     << "typedef bit<16> quant_t;   // quantised feature level\n\n"
     << "header ethernet_t { bit<48> dst; bit<48> src; bit<16> ether_type; }\n"
     << "header ipv4_t {\n"
     << "  bit<4> version; bit<4> ihl; bit<8> dscp; bit<16> total_len;\n"
     << "  bit<16> id; bit<3> flags; bit<13> frag; bit<8> ttl; bit<8> proto;\n"
     << "  bit<16> csum; ipv4_addr_t src; ipv4_addr_t dst;\n}\n"
     << "header l4_t { bit<16> sport; bit<16> dport; }\n\n"
     << "struct headers_t { ethernet_t eth; ipv4_t ipv4; l4_t l4; }\n";
}

void emit_metadata(std::ostringstream& os, std::size_t fl_tables, std::size_t pl_tables) {
  os << "\nstruct metadata_t {\n"
     << "  bit<32> flow_index;       // bi-hash slot\n"
     << "  bit<64> flow_sig;\n"
     << "  bit<8>  benign_votes_fl;  // match-count over " << fl_tables << " FL tables\n"
     << "  bit<8>  benign_votes_pl;  // match-count over " << pl_tables << " PL tables\n"
     << "  bit<2>  flow_label;       // 0 benign, 1 malicious, 2 unclassified\n"
     << "  bit<1>  timed_out;\n"
     << "  bit<1>  reached_n;\n";
  for (std::size_t j = 0; j < 13; ++j) {
    os << "  quant_t q_" << kFlFieldNames[j] << ";\n";
  }
  os << "}\n";
}

void emit_registers(std::ostringstream& os, const P4EmitOptions& o) {
  os << "\n// Stateful flow storage (two hash ways, Fig. 4): the nine packed\n"
     << "// 64-bit register arrays the resource model charges as sALUs.\n";
  const char* regs[] = {"sig",      "count_label", "total_size", "sum_sq_size",
                        "minmax_size", "timestamps", "sum_ipd",   "sum_sq_ipd",
                        "minmax_ipd"};
  for (const char* r : regs) {
    os << "register<bit<64>>(" << 2 * o.flow_slots << ") reg_" << r << ";\n";
  }
}

void emit_range_table(std::ostringstream& os, const std::string& name,
                      std::span<const char* const> fields, const std::string& qualifier,
                      std::size_t size, const std::string& hit_action) {
  os << "\ntable " << name << " {\n  key = {\n";
  for (const auto* f : fields) {
    os << "    meta." << qualifier << f << " : range;\n";
  }
  os << "  }\n  actions = { " << hit_action << "; NoAction; }\n"
     << "  size = " << std::max<std::size_t>(size, 1) << ";\n"
     << "  default_action = NoAction();\n}\n";
}

}  // namespace

std::string emit_p4_program(const DeployedModel& model, const P4EmitOptions& o) {
  std::ostringstream os;
  const std::size_t fl_tables = model->fl.tables.size();
  const std::size_t pl_tables = model->pl.tables.size();

  emit_header(os, o);
  emit_metadata(os, fl_tables, pl_tables);
  emit_registers(os, o);

  os << "\n// Exact-match blacklist (installed by the controller via digests).\n"
     << "table blacklist {\n"
     << "  key = { hdr.ipv4.src : exact; hdr.ipv4.dst : exact;\n"
     << "          hdr.l4.sport : exact; hdr.l4.dport : exact; hdr.ipv4.proto : exact; }\n"
     << "  actions = { drop_packet; NoAction; }\n"
     << "  size = " << o.blacklist_capacity << ";\n  default_action = NoAction();\n}\n";

  os << "\naction vote_fl() { meta.benign_votes_fl = meta.benign_votes_fl + 1; }\n"
     << "action vote_pl() { meta.benign_votes_pl = meta.benign_votes_pl + 1; }\n"
     << "action drop_packet() { mark_to_drop(standard_metadata); }\n";

  os << "\n// Per-tree FL whitelist tables (majority of " << fl_tables
     << " matches => benign).\n";
  for (std::size_t t = 0; t < fl_tables; ++t) {
    emit_range_table(os, "fl_whitelist_tree" + std::to_string(t),
                     std::span<const char* const>(kFlFieldNames, 13), "q_",
                     model->fl.tables[t].size(), "vote_fl");
  }
  if (model->has_pl()) {
    os << "\n// Per-tree PL (early-packet) whitelist tables.\n";
    for (std::size_t t = 0; t < pl_tables; ++t) {
      emit_range_table(os, "pl_whitelist_tree" + std::to_string(t),
                       std::span<const char* const>(kPlFieldNames, 4), "q_pl_",
                       model->pl.tables[t].size(), "vote_pl");
    }
  }

  os << "\ncontrol Ingress(inout headers_t hdr, inout metadata_t meta,\n"
     << "                inout standard_metadata_t standard_metadata) {\n"
     << "  apply {\n"
     << "    // red path\n"
     << "    if (blacklist.apply().hit) { return; }\n"
     << "    // flow storage access, feature update, (n, delta) checks —\n"
     << "    // see iguard::switchsim::Pipeline for the behavioural model\n"
     << "    // (packet threshold n = " << o.packet_threshold_n
     << ", idle timeout = " << o.idle_timeout_us << " us).\n";
  for (std::size_t t = 0; t < fl_tables; ++t) {
    os << "    fl_whitelist_tree" << t << ".apply();\n";
  }
  os << "    if (meta.reached_n == 1 || meta.timed_out == 1) {\n"
     << "      if ((bit<8>)" << fl_tables << " < meta.benign_votes_fl * 2) {\n"
     << "        meta.flow_label = 0;  // strict majority benign\n"
     << "      } else {\n        meta.flow_label = 1;\n      }\n"
     << "      digest<flow_digest_t>(1, { hdr.ipv4.src, hdr.ipv4.dst,\n"
     << "        hdr.l4.sport, hdr.l4.dport, hdr.ipv4.proto, meta.flow_label });\n"
     << "    } else {\n";
  for (std::size_t t = 0; t < pl_tables; ++t) {
    os << "      pl_whitelist_tree" << t << ".apply();\n";
  }
  os << "      if (meta.benign_votes_pl * 2 <= (bit<8>)" << std::max<std::size_t>(pl_tables, 1)
     << ") { drop_packet(); }\n"
     << "    }\n  }\n}\n";

  os << "\n// Parser/deparser and V1Switch instantiation elided for brevity;\n"
     << "// see the repository's switchsim pipeline for exact semantics.\n";
  return os.str();
}

std::string emit_table_entries(const DeployedModel& model) {
  std::ostringstream os;
  auto dump = [&os](const core::VoteWhitelist& wl, const std::string& prefix,
                    const char* action) {
    for (std::size_t t = 0; t < wl.tables.size(); ++t) {
      for (const auto& r : wl.tables[t].rules()) {
        os << "table_add " << prefix << t << " " << action;
        for (const auto& f : r.fields) {
          os << " " << f.lo << "->" << f.hi;
        }
        os << " => " << r.priority << "\n";
      }
    }
  };
  dump(model->fl, "fl_whitelist_tree", "vote_fl");
  dump(model->pl, "pl_whitelist_tree", "vote_pl");
  return os.str();
}

}  // namespace iguard::switchsim
