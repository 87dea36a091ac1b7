// Blacklist exact-match table. The control plane (see faults.hpp) receives
// digests from the data plane whenever a flow's class is determined (13 B
// five-tuple + 1-bit label, App. B.2), installs a blacklist rule for
// malicious flows, and evicts old rules FIFO or LRU when the table is full
// (§3.3.2). LRU eviction is O(log n) via a stamp index — a sustained-DDoS
// blacklist churns one eviction per install, exactly the regime a per-install
// linear scan cannot afford.
//
// The table is one open-addressing array sized at construction (linear
// probing, backward-shift deletion), and FIFO order is a fixed ring of the
// live keys, so lookups, FIFO installs and evictions never allocate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "trafficgen/packet.hpp"

namespace iguard::switchsim {

enum class EvictionPolicy { kFifo, kLru };

class BlacklistTable {
 public:
  /// Largest capacity the constructor accepts (validate_config rejects
  /// more): far above the exact-match SRAM of a Tofino-1 (resources.hpp).
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 24;

  /// Allocates every slot up front: at least 2 × capacity, a power of two.
  /// Throws std::invalid_argument past kMaxCapacity.
  explicit BlacklistTable(std::size_t capacity, EvictionPolicy policy = EvictionPolicy::kFifo);

  /// Bidirectional table key of a 5-tuple — exposed so the pipeline can
  /// hash a packet once and reuse the key for the blacklist lookup and the
  /// leak check.
  static std::uint64_t flow_key(const traffic::FiveTuple& ft) {
    return traffic::bihash(ft, 0xB1AC);
  }

  /// True if the 5-tuple (either direction) is blacklisted. LRU mode
  /// refreshes recency on hit.
  bool contains(const traffic::FiveTuple& ft) { return contains_key(flow_key(ft)); }

  /// Same, keyed by a precomputed flow_key(ft).
  bool contains_key(std::uint64_t k) {
    const std::size_t i = find(k);
    if (i == kNone) return false;
    if (policy_ == EvictionPolicy::kLru) touch(i);
    return true;
  }

  /// Install a rule; evicts the oldest/least-recently-used entry when full.
  /// Returns true when a new entry was inserted (false = duplicate; LRU
  /// refreshes recency, FIFO keeps the original install position).
  bool install(const traffic::FiveTuple& ft);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t evictions() const { return evictions_; }
  /// Keys in the FIFO install-order ring (0 under LRU): exactly the live
  /// entries, since nothing leaves the table except by eviction.
  std::size_t order_queue_size() const { return policy_ == EvictionPolicy::kFifo ? size_ : 0; }

 private:
  /// stamp == 0 marks an empty slot; live stamps start at 1.
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t stamp = 0;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Slot index of k, or kNone.
  std::size_t find(std::uint64_t k) const {
    for (std::size_t i = k & mask_;; i = (i + 1) & mask_) {
      if (slots_[i].stamp == 0) return kNone;
      if (slots_[i].key == k) return i;
    }
  }
  void erase_at(std::size_t i);  // backward-shift deletion
  void evict();
  void touch(std::size_t i);

  std::size_t capacity_;
  EvictionPolicy policy_;
  std::vector<Slot> slots_;
  std::size_t mask_;  // slots_.size() - 1
  std::size_t size_ = 0;
  /// FIFO only: the live keys in install order, oldest at ring_head_.
  std::vector<std::uint64_t> ring_;
  std::size_t ring_head_ = 0;
  std::map<std::uint64_t, std::uint64_t> by_stamp_;  // LRU: stamp -> key
  std::uint64_t clock_ = 0;
  std::size_t evictions_ = 0;
};

/// Grow-only set of 64-bit flow keys: open addressing with 8-byte slots and
/// linear probing, doubled when half full. Keys are already well-mixed
/// hashes, so the low bits index directly. Key 0 (the empty-slot marker) is
/// held in a flag. Inserting a key already present allocates nothing.
class FlowKeySet {
 public:
  bool contains(std::uint64_t k) const {
    if (k == 0) return has_zero_;
    return !slots_.empty() && slots_[probe(k)] == k;
  }
  void insert(std::uint64_t k);
  std::size_t size() const { return size_ + (has_zero_ ? 1 : 0); }

 private:
  /// Slot holding k, else the empty slot that ends k's probe run. Needs a
  /// non-empty table.
  std::size_t probe(std::uint64_t k) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = k & mask;
    while (slots_[i] != 0 && slots_[i] != k) i = (i + 1) & mask;
    return i;
  }

  std::vector<std::uint64_t> slots_;  // 0 = empty; power-of-two size
  std::size_t size_ = 0;              // nonzero keys stored
  bool has_zero_ = false;
};

/// One digest message (data plane -> controller).
struct Digest {
  traffic::FiveTuple ft;
  int label = 0;

  /// Wire size: 13 B 5-tuple + 1 B carrying the 1-bit label (App. B.2).
  static constexpr std::size_t kBytes = 14;
};

}  // namespace iguard::switchsim
