// Stateful flow storage: two register tables indexed by two independent
// hashes of the bidirectional flow signature (HorusEye's bi-hash + double
// hash table scheme, §3.3.1). A flow lives in whichever table had a free or
// matching slot first; when both candidate slots are occupied by other
// flows the access reports a collision and the pipeline takes the orange
// path of Fig. 4.
#pragma once

#include <cstddef>
#include <vector>

#include "switchsim/flow_state.hpp"
#include "trafficgen/packet.hpp"

namespace iguard::switchsim {

class FlowStore {
 public:
  /// Largest slots_per_table the constructor accepts (validate_config
  /// rejects more): 2^24 slots per table is far above Tofino-1 SRAM
  /// (resources.hpp), and a larger request is a misconfiguration, not a
  /// deployment.
  static constexpr std::size_t kMaxSlotsPerTable = std::size_t{1} << 24;

  /// Throws std::invalid_argument on 0 or more than kMaxSlotsPerTable slots.
  explicit FlowStore(std::size_t slots_per_table, std::uint64_t seed = 0x5117c4);

  struct Access {
    IntFlowState* state = nullptr;  // resident slot (matching, fresh, or the
                                    // colliding occupant, by case)
    std::uint64_t sig = 0;          // signature(ft), for the register update
    bool found = false;             // slot already held this flow
    bool inserted = false;          // empty slot claimed for this flow
    bool collision = false;         // both candidate slots occupied by others
  };

  /// Look up (or claim a slot for) the flow with the given 5-tuple. The
  /// tuple is canonicalised once; the signature and both slot hashes are
  /// taken from the canonical form. A flow's slot in a table is
  /// traffic::hash_slot of its hash under that table's seed, so a
  /// power-of-two slots_per_table indexes by mask instead of division.
  Access access(const traffic::FiveTuple& ft);

  /// Read-only lookup (no slot claiming): the resident state for this flow,
  /// or nullptr if it is not tracked.
  const IntFlowState* find(const traffic::FiveTuple& ft) const;

  /// Signature used for slot ownership checks.
  std::uint64_t signature(const traffic::FiveTuple& ft) const;

  void clear_slot(IntFlowState& st) { st = IntFlowState{}; }

  /// Visit every occupied slot (table 1 then table 2, slot order) — the
  /// register sweep a restarted controller performs to rebuild its view.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& s : table1_)
      if (!s.empty()) f(s);
    for (const auto& s : table2_)
      if (!s.empty()) f(s);
  }

  std::size_t slots_per_table() const { return table1_.size(); }
  std::size_t occupied() const;

 private:
  /// Signature and both candidate slot indices of one flow, all hashed
  /// from a single canonicalisation of its tuple.
  struct Probe {
    std::uint64_t sig;
    std::size_t i1, i2;
  };
  Probe probe(const traffic::FiveTuple& ft) const;

  std::vector<IntFlowState> table1_, table2_;
  std::uint64_t seed1_, seed2_, sig_seed_;
};

}  // namespace iguard::switchsim
