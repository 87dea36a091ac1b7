#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/whitelist.hpp"
#include "ml/rng.hpp"
#include "rules/compiled_table.hpp"
#include "rules/rule_table.hpp"

namespace iguard::rules {
namespace {

/// Reference first-match index: the linear scan the compiled engine must
/// reproduce bit for bit.
int linear_match_index(const RuleTable& t, std::span<const std::uint32_t> key) {
  for (std::size_t i = 0; i < t.rules().size(); ++i) {
    if (t.rules()[i].matches(key)) return static_cast<int>(i);
  }
  return -1;
}

void expect_equivalent(const RuleTable& lin, const CompiledRuleTable& comp,
                       std::span<const std::uint32_t> key) {
  const int want = linear_match_index(lin, key);
  ASSERT_EQ(comp.match_index(key), want);
  ASSERT_EQ(comp.classify(key), lin.classify(key));
  const auto m_lin = lin.match(key);
  const auto m_comp = comp.match(key);
  ASSERT_EQ(m_comp.has_value(), m_lin.has_value());
  if (m_lin) {
    ASSERT_EQ(*m_comp, *m_lin);
  }
}

/// Random rule over `width` fields drawn from a small domain so overlaps,
/// adjacency, duplicates, and empties all occur often.
RangeRule random_rule(ml::Rng& rng, std::size_t width, std::uint32_t domain) {
  RangeRule r;
  r.fields.resize(width);
  for (auto& f : r.fields) {
    switch (rng.index(10)) {
      case 0:  // full domain
        f = {0, domain};
        break;
      case 1:  // empty (lo > hi): must match nothing
        f = {domain / 2 + 1, domain / 2};
        break;
      case 2: {  // point
        const auto v = static_cast<std::uint32_t>(rng.integer(0, domain));
        f = {v, v};
        break;
      }
      default: {
        const auto a = static_cast<std::uint32_t>(rng.integer(0, domain));
        const auto b = static_cast<std::uint32_t>(rng.integer(0, domain));
        f = {std::min(a, b), std::max(a, b)};
      }
    }
  }
  r.label = static_cast<int>(rng.index(2));
  r.priority = static_cast<int>(rng.index(5));  // duplicate priorities likely
  return r;
}

TEST(CompiledRuleTable, PropertyEquivalentToLinearScan) {
  ml::Rng rng(0xC0117ull);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t width = 1 + rng.index(5);
    const std::uint32_t domain = trial % 2 == 0 ? 15u : 255u;
    const std::size_t n_rules = rng.index(40);
    std::vector<RangeRule> rules;
    for (std::size_t i = 0; i < n_rules; ++i) rules.push_back(random_rule(rng, width, domain));

    const RuleTable lin(rules);
    const CompiledRuleTable comp(rules);
    ASSERT_EQ(comp.size(), lin.size());
    ASSERT_EQ(comp.rules(), lin.rules());  // same priority-stable order

    std::vector<std::uint32_t> key(width);
    // Random keys, including out-of-domain values.
    for (int k = 0; k < 50; ++k) {
      for (auto& v : key) v = static_cast<std::uint32_t>(rng.integer(0, 2 * domain));
      expect_equivalent(lin, comp, key);
    }
    // Endpoint-adjacent keys: perturb a random rule's corner, where
    // off-by-one interval bugs live.
    for (int k = 0; k < 50 && !rules.empty(); ++k) {
      const auto& r = rules[rng.index(rules.size())];
      for (std::size_t f = 0; f < width; ++f) {
        const std::uint32_t base = rng.index(2) == 0 ? r.fields[f].lo : r.fields[f].hi;
        const std::int64_t jitter = rng.integer(-1, 1);
        key[f] = static_cast<std::uint32_t>(
            std::max<std::int64_t>(0, static_cast<std::int64_t>(base) + jitter));
      }
      expect_equivalent(lin, comp, key);
    }
  }
}

TEST(CompiledRuleTable, ManyRulesCrossWordBoundaries) {
  // >2 mask words with interleaved priorities: the first set bit of the
  // word sweep must match the scan even when the winner is in word 2.
  ml::Rng rng(0x77AB1Eull);
  std::vector<RangeRule> rules;
  for (int i = 0; i < 150; ++i) rules.push_back(random_rule(rng, 3, 31));
  const RuleTable lin(rules);
  const CompiledRuleTable comp(rules);
  std::vector<std::uint32_t> key(3);
  for (int k = 0; k < 500; ++k) {
    for (auto& v : key) v = static_cast<std::uint32_t>(rng.integer(0, 40));
    expect_equivalent(lin, comp, key);
  }
}

TEST(CompiledRuleTable, MixedWidthsMatchOnlyOwnWidth) {
  std::vector<RangeRule> rules{
      {{{0, 10}}, 0, 0},            // width 1
      {{{0, 10}, {0, 10}}, 1, 1},   // width 2
      {{}, 0, 2},                   // width 0: matches the empty key
  };
  const RuleTable lin(rules);
  const CompiledRuleTable comp(rules);
  const std::uint32_t k1[] = {5};
  const std::uint32_t k2[] = {5, 5};
  const std::uint32_t k3[] = {5, 5, 5};
  expect_equivalent(lin, comp, k1);
  expect_equivalent(lin, comp, k2);
  expect_equivalent(lin, comp, k3);
  expect_equivalent(lin, comp, std::span<const std::uint32_t>{});
}

TEST(CompiledRuleTable, DomainEdgeRanges) {
  // hi = 2^32-1 exercises the hi+1 breakpoint at the end of the domain.
  const std::uint32_t max = 0xFFFFFFFFu;
  std::vector<RangeRule> rules{
      {{{max - 1, max}}, 0, 1},
      {{{0, 0}}, 0, 0},
  };
  const RuleTable lin(rules);
  const CompiledRuleTable comp(rules);
  for (const std::uint32_t v : {0u, 1u, max - 2, max - 1, max}) {
    const std::uint32_t key[] = {v};
    expect_equivalent(lin, comp, key);
  }
}

TEST(CompiledRuleTable, EmptyTableMatchesNothing) {
  const CompiledRuleTable comp{RuleTable{}};
  const std::uint32_t key[] = {0, 1};
  EXPECT_EQ(comp.match_index(key), -1);
  EXPECT_EQ(comp.classify(key), 1);  // no-match defaults to malicious
}

TEST(CompiledVoteWhitelist, VoteIdenticalToLinear) {
  // Both key widths the pipeline votes on: 4-field PL and 13-field FL keys.
  ml::Rng rng(0x70735ull);
  for (const std::size_t width : {std::size_t{4}, std::size_t{13}}) {
    core::VoteWhitelist wl;
    wl.tree_count = 5;
    for (std::size_t t = 0; t < 5; ++t) {
      std::vector<RangeRule> rules;
      const std::size_t n = 1 + rng.index(20);
      for (std::size_t i = 0; i < n; ++i) rules.push_back(random_rule(rng, width, 31));
      wl.tables.emplace_back(std::move(rules));
    }
    const core::CompiledVoteWhitelist comp(wl);
    std::vector<std::uint32_t> key(width);
    for (int k = 0; k < 1000; ++k) {
      for (auto& v : key) v = static_cast<std::uint32_t>(rng.integer(0, 40));
      if (k % 2 == 1) {
        // Land inside a random rule's box: uniform 13-field keys almost
        // never match anything, so the hit path would go unchecked.
        const auto& rules = wl.tables[rng.index(5)].rules();
        const RangeRule& r = rules[rng.index(rules.size())];
        for (std::size_t f = 0; f < width; ++f) {
          if (!r.fields[f].empty()) {
            key[f] = static_cast<std::uint32_t>(rng.integer(r.fields[f].lo, r.fields[f].hi));
          }
        }
      }
      ASSERT_EQ(comp.classify(key), wl.classify(key));
      ASSERT_DOUBLE_EQ(comp.malicious_vote_fraction(key), wl.malicious_vote_fraction(key));
    }
  }
}

TEST(Quantizer, QuantizeIntoMatchesQuantize) {
  ml::Matrix fake(2, 13);
  for (std::size_t j = 0; j < 13; ++j) {
    fake(0, j) = -3.0 * static_cast<double>(j);
    fake(1, j) = 100.0 + static_cast<double>(j);
  }
  Quantizer q(16);
  q.fit(fake);
  ml::Rng rng(0x9143ull);
  std::array<double, 13> x;
  std::array<std::uint32_t, 13> buf;
  for (int k = 0; k < 100; ++k) {
    for (auto& v : x) v = rng.uniform(-50.0, 150.0);
    q.quantize_into(x, buf);
    const auto ref = q.quantize(x);
    for (std::size_t j = 0; j < 13; ++j) ASSERT_EQ(buf[j], ref[j]);
  }
  std::array<std::uint32_t, 5> small;
  EXPECT_THROW(q.quantize_into(x, small), std::invalid_argument);
}

}  // namespace
}  // namespace iguard::rules
