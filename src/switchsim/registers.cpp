#include "switchsim/registers.hpp"

#include <stdexcept>

namespace iguard::switchsim {

namespace {
// Signatures are never 0: 0 marks an empty slot.
std::uint64_t nonzero(std::uint64_t sig) { return sig == 0 ? 1 : sig; }
}  // namespace

FlowStore::FlowStore(std::size_t slots_per_table, std::uint64_t seed)
    : seed1_(seed ^ 0xA5A5A5A5ull), seed2_(seed ^ 0x3C3C3C3Cull), sig_seed_(seed) {
  if (slots_per_table == 0) throw std::invalid_argument("FlowStore: zero slots");
  if (slots_per_table > kMaxSlotsPerTable) {
    throw std::invalid_argument("FlowStore: more than 2^24 slots per table");
  }
  table1_.resize(slots_per_table);
  table2_.resize(slots_per_table);
}

std::uint64_t FlowStore::signature(const traffic::FiveTuple& ft) const {
  return nonzero(traffic::bihash(ft, sig_seed_));
}

FlowStore::Probe FlowStore::probe(const traffic::FiveTuple& ft) const {
  const traffic::FiveTuple c = ft.canonical();
  const std::size_t n = table1_.size();
  return {nonzero(traffic::dirhash(c, sig_seed_)),
          traffic::hash_slot(traffic::dirhash(c, seed1_), n),
          traffic::hash_slot(traffic::dirhash(c, seed2_), n)};
}

FlowStore::Access FlowStore::access(const traffic::FiveTuple& ft) {
  const Probe pr = probe(ft);
  IntFlowState& s1 = table1_[pr.i1];
  IntFlowState& s2 = table2_[pr.i2];

  Access a;
  a.sig = pr.sig;
  if (!s1.empty() && s1.sig == pr.sig) {
    a.state = &s1;
    a.found = true;
  } else if (!s2.empty() && s2.sig == pr.sig) {
    a.state = &s2;
    a.found = true;
  } else if (s1.empty()) {
    a.state = &s1;
    a.inserted = true;
  } else if (s2.empty()) {
    a.state = &s2;
    a.inserted = true;
  } else {
    // Both ways occupied by other flows: the primary slot is the resident
    // the orange path inspects.
    a.state = &s1;
    a.collision = true;
  }
  return a;
}

const IntFlowState* FlowStore::find(const traffic::FiveTuple& ft) const {
  const Probe pr = probe(ft);
  const IntFlowState& s1 = table1_[pr.i1];
  const IntFlowState& s2 = table2_[pr.i2];
  if (!s1.empty() && s1.sig == pr.sig) return &s1;
  if (!s2.empty() && s2.sig == pr.sig) return &s2;
  return nullptr;
}

std::size_t FlowStore::occupied() const {
  std::size_t n = 0;
  for (const auto& s : table1_) n += s.empty() ? 0 : 1;
  for (const auto& s : table2_) n += s.empty() ? 0 : 1;
  return n;
}

}  // namespace iguard::switchsim
