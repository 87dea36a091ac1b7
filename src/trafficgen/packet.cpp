#include "trafficgen/packet.hpp"

#include <algorithm>

namespace iguard::traffic {

void Trace::sort_by_time() {
  std::stable_sort(packets.begin(), packets.end(),
                   [](const Packet& a, const Packet& b) { return a.ts < b.ts; });
}

void Trace::append(const Trace& other) {
  packets.insert(packets.end(), other.packets.begin(), other.packets.end());
}

Trace merge_traces(std::vector<Trace> parts) {
  Trace out;
  std::uint32_t flow_base = 0;
  for (auto& p : parts) {
    std::uint32_t max_id = 0;
    for (auto& pkt : p.packets) {
      pkt.flow_id += flow_base;
      max_id = std::max(max_id, pkt.flow_id);
      out.packets.push_back(pkt);
    }
    if (!p.packets.empty()) flow_base = max_id + 1;
  }
  out.sort_by_time();
  return out;
}

}  // namespace iguard::traffic
