#include "rules/compiled_table.hpp"

#include <algorithm>
#include <bit>

namespace iguard::rules {

namespace {

constexpr std::uint64_t kDomainEnd = 1ull << 32;  // one past the largest key

/// Widest key the AND sweep handles on the stack; real tables are 4 (PL) or
/// 13 (FL) fields wide. Wider rules fall back to the linear scan.
constexpr std::size_t kMaxFields = 64;

}  // namespace

void CompiledRuleTable::compile(const std::vector<RangeRule>& sorted_rules) {
  rules_ = sorted_rules;
  groups_.clear();

  // Group rule indices by width, preserving priority order within a group.
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    const std::size_t w = rules_[ri].fields.size();
    auto it = std::find_if(groups_.begin(), groups_.end(),
                           [w](const WidthGroup& g) { return g.width == w; });
    if (it == groups_.end()) {
      groups_.push_back(WidthGroup{w, 0, {}, {}});
      it = std::prev(groups_.end());
    }
    it->to_global.push_back(static_cast<std::uint32_t>(ri));
  }
  std::sort(groups_.begin(), groups_.end(),
            [](const WidthGroup& a, const WidthGroup& b) { return a.width < b.width; });

  for (auto& g : groups_) {
    const std::size_t n = g.to_global.size();
    g.words = (n + 63) / 64;
    g.fields.resize(g.width);
    if (g.width > kMaxFields) continue;  // match_index falls back to the scan
    for (std::size_t f = 0; f < g.width; ++f) {
      FieldIndex& fi = g.fields[f];
      // Breakpoints: every rule's lo and hi+1 (the first value past the
      // range). Between consecutive breakpoints the covering set is
      // constant. Collected in 64-bit (hi+1 can be 2^32), narrowed below
      // once the one out-of-domain candidate is dropped.
      std::vector<std::uint64_t> bounds;
      bounds.push_back(0);
      for (const std::uint32_t gi : g.to_global) {
        const FieldRange& r = rules_[gi].fields[f];
        if (r.empty()) continue;  // matches nothing: never sets a bit
        bounds.push_back(r.lo);
        bounds.push_back(static_cast<std::uint64_t>(r.hi) + 1);
      }
      std::sort(bounds.begin(), bounds.end());
      bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
      if (bounds.back() >= kDomainEnd) bounds.pop_back();  // hi = 2^32-1
      fi.bounds.assign(bounds.begin(), bounds.end());

      fi.masks.assign(fi.bounds.size() * g.words, 0);
      for (std::size_t li = 0; li < n; ++li) {
        const FieldRange& r = rules_[g.to_global[li]].fields[f];
        if (r.empty()) continue;
        // Intervals are either fully inside or fully outside [lo, hi]; the
        // covered ones start at bound == lo and end before the bound > hi.
        const auto first = std::lower_bound(fi.bounds.begin(), fi.bounds.end(), r.lo);
        const auto last = std::upper_bound(first, fi.bounds.end(), r.hi);
        const std::uint64_t bit = 1ull << (li % 64);
        const std::size_t word = li / 64;
        for (auto it = first; it != last; ++it) {
          const std::size_t iv = static_cast<std::size_t>(it - fi.bounds.begin());
          fi.masks[iv * g.words + word] |= bit;
        }
      }
      // Coverage flags: an interval with an all-zero mask row can reject a
      // lookup after one binary search, before any AND work.
      fi.covered.assign(fi.bounds.size(), 0);
      for (std::size_t iv = 0; iv < fi.bounds.size(); ++iv) {
        for (std::size_t w = 0; w < g.words; ++w) {
          if (fi.masks[iv * g.words + w] != 0) {
            fi.covered[iv] = 1;
            break;
          }
        }
      }
    }
  }
}

int CompiledRuleTable::match_index(std::span<const std::uint32_t> key) const {
  for (const auto& g : groups_) {
    if (g.width != key.size()) continue;
    if (g.width == 0) return static_cast<int>(g.to_global[0]);  // empty conjunction
    if (g.width > kMaxFields) {
      for (const std::uint32_t gi : g.to_global) {
        if (rules_[gi].matches(key)) return static_cast<int>(gi);
      }
      return -1;
    }
    // One binary search per field resolves the interval whose mask row
    // describes exactly the rules covering key[f] on that field.
    const std::uint64_t* rows[kMaxFields];
    for (std::size_t f = 0; f < g.width; ++f) {
      const FieldIndex& fi = g.fields[f];
      const auto it = std::upper_bound(fi.bounds.begin(), fi.bounds.end(), key[f]);
      const std::size_t iv = static_cast<std::size_t>(it - fi.bounds.begin()) - 1;
      if (fi.covered[iv] == 0) return -1;  // no rule covers key[f] here
      rows[f] = fi.masks.data() + iv * g.words;
    }
    // Word-wise intersection, low rule indices first: the first set bit is
    // the highest-priority match (the TCAM priority encoder).
    for (std::size_t w = 0; w < g.words; ++w) {
      std::uint64_t acc = rows[0][w];
      for (std::size_t f = 1; f < g.width && acc != 0; ++f) acc &= rows[f][w];
      if (acc != 0) {
        const std::size_t local = w * 64 + static_cast<std::size_t>(std::countr_zero(acc));
        return static_cast<int>(g.to_global[local]);
      }
    }
    return -1;
  }
  return -1;
}

}  // namespace iguard::rules
