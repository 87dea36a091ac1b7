// Packet and trace model. A Trace is the in-memory stand-in for the PCAP
// files the paper replays with tcpreplay: a time-ordered packet sequence
// carrying exactly the header fields the feature extractors and the switch
// pipeline consume (5-tuple, length, TTL, TCP flags), plus ground-truth
// labels used only by the evaluation harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace iguard::traffic {

struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;  // IPPROTO_TCP=6, UDP=17, ICMP=1

  bool operator==(const FiveTuple&) const = default;

  /// Direction-reversed tuple (for bidirectional flow keys).
  FiveTuple reversed() const { return {dst_ip, src_ip, dst_port, src_port, proto}; }

  /// Canonical orientation — the same rule bihash() uses to make both
  /// directions hash alike: the endpoint with the smaller (ip, port) pair is
  /// the source. Direction-invariant: ft.canonical() == ft.reversed().canonical().
  FiveTuple canonical() const {
    const bool fwd = src_ip < dst_ip || (src_ip == dst_ip && src_port <= dst_port);
    return fwd ? *this : reversed();
  }
};

/// SplitMix64 finaliser — cheap, well-mixed 64-bit hash step.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-dependent hash (exact-match table keying). Inline: the packet path
/// hashes one tuple under several seeds per packet.
inline std::uint64_t dirhash(const FiveTuple& ft, std::uint64_t seed = 0) {
  const std::uint64_t h = mix64(seed ^ (static_cast<std::uint64_t>(ft.src_ip) << 32 | ft.dst_ip));
  return mix64(h ^ (static_cast<std::uint64_t>(ft.src_port) << 32 |
                    static_cast<std::uint64_t>(ft.dst_port) << 16 | ft.proto));
}

/// 64-bit order-independent (bidirectional) hash of a 5-tuple — the paper's
/// "bi-hash": both directions of a connection index the same flow state.
/// Equal to dirhash(ft.canonical(), seed), so a caller hashing one tuple
/// under several seeds canonicalises once and calls dirhash.
inline std::uint64_t bihash(const FiveTuple& ft, std::uint64_t seed = 0) {
  return dirhash(ft.canonical(), seed);
}

/// Bucket of hash `h` among `n` >= 1 buckets: h mod n, taken as a mask when
/// n is a power of two (the two agree there), so power-of-two tables skip
/// the division.
inline std::size_t hash_slot(std::uint64_t h, std::size_t n) {
  return (n & (n - 1)) == 0 ? static_cast<std::size_t>(h & (n - 1))
                            : static_cast<std::size_t>(h % n);
}

enum class TcpFlag : std::uint8_t { kNone = 0, kSyn = 1, kAck = 2, kSynAck = 3, kFin = 4, kRst = 5 };

struct Packet {
  double ts = 0.0;  // seconds since trace start
  FiveTuple ft;
  std::uint16_t length = 0;  // IP total length, bytes
  std::uint8_t ttl = 64;
  TcpFlag flags = TcpFlag::kNone;

  // Ground truth, never visible to the detectors / data plane:
  bool malicious = false;
  std::uint32_t flow_id = 0;  // generator-assigned flow index
};

struct Trace {
  std::vector<Packet> packets;

  double duration() const {
    return packets.empty() ? 0.0 : packets.back().ts - packets.front().ts;
  }
  std::size_t size() const { return packets.size(); }
  bool empty() const { return packets.empty(); }

  /// Stable-sort by timestamp (generators emit per-flow bursts).
  void sort_by_time();

  /// Append another trace's packets (no re-sort).
  void append(const Trace& other);
};

/// Interleave traces into one time-ordered trace, renumbering flow_ids so
/// they stay unique across sources.
Trace merge_traces(std::vector<Trace> parts);

constexpr std::uint8_t kProtoTcp = 6;
constexpr std::uint8_t kProtoUdp = 17;
constexpr std::uint8_t kProtoIcmp = 1;

}  // namespace iguard::traffic
