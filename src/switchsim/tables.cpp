#include "switchsim/tables.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace iguard::switchsim {

BlacklistTable::BlacklistTable(std::size_t capacity, EvictionPolicy policy)
    : capacity_(capacity), policy_(policy) {
  if (capacity > kMaxCapacity) {
    throw std::invalid_argument("BlacklistTable: capacity above 2^24");
  }
  // At most half the slots are ever live, so every probe ends at an empty
  // slot after a short run.
  slots_.resize(std::bit_ceil(std::max<std::size_t>(2 * capacity, 1)));
  mask_ = slots_.size() - 1;
  if (policy_ == EvictionPolicy::kFifo) ring_.resize(capacity);
}

void BlacklistTable::touch(std::size_t i) {
  Slot& s = slots_[i];
  by_stamp_.erase(s.stamp);
  s.stamp = ++clock_;
  by_stamp_.emplace(s.stamp, s.key);
}

void BlacklistTable::erase_at(std::size_t i) {
  // Backward shift: walk the rest of the probe run and pull each entry
  // whose home slot does not lie between the hole and itself back into the
  // hole, so no tombstones are needed and lookups still stop at the first
  // empty slot.
  for (std::size_t j = (i + 1) & mask_; slots_[j].stamp != 0; j = (j + 1) & mask_) {
    const std::size_t home = slots_[j].key & mask_;
    if (((j - home) & mask_) >= ((j - i) & mask_)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
  --size_;
}

void BlacklistTable::evict() {
  std::uint64_t victim = 0;
  if (policy_ == EvictionPolicy::kFifo) {
    victim = ring_[ring_head_];
    ring_head_ = ring_head_ + 1 == capacity_ ? 0 : ring_head_ + 1;
  } else {
    const auto oldest = by_stamp_.begin();
    victim = oldest->second;
    by_stamp_.erase(oldest);
  }
  erase_at(find(victim));
  ++evictions_;
}

bool BlacklistTable::install(const traffic::FiveTuple& ft) {
  if (capacity_ == 0) return false;
  const std::uint64_t k = flow_key(ft);
  if (const std::size_t hit = find(k); hit != kNone) {
    if (policy_ == EvictionPolicy::kLru) touch(hit);
    return false;
  }
  if (size_ >= capacity_) evict();
  std::size_t i = k & mask_;
  while (slots_[i].stamp != 0) i = (i + 1) & mask_;
  slots_[i] = {k, ++clock_};
  // The install-order ring exists only for FIFO eviction; the stamp index
  // only for LRU.
  if (policy_ == EvictionPolicy::kFifo) {
    const std::size_t tail = ring_head_ + size_;
    ring_[tail >= capacity_ ? tail - capacity_ : tail] = k;
  } else {
    by_stamp_.emplace(slots_[i].stamp, k);
  }
  ++size_;
  return true;
}

void FlowKeySet::insert(std::uint64_t k) {
  if (k == 0) {
    has_zero_ = true;
    return;
  }
  if (contains(k)) return;
  if (2 * (size_ + 1) > slots_.size()) {  // keep at least half the slots empty
    std::vector<std::uint64_t> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    for (const std::uint64_t o : old) {
      if (o != 0) slots_[probe(o)] = o;
    }
  }
  slots_[probe(k)] = k;
  ++size_;
}

}  // namespace iguard::switchsim
