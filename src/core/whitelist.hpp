// Whitelist rule generation (§3.2.3). The paper forms "iForest hypercubes"
// from the Cartesian product of all leaf feature boundaries, labels each
// hypercube with the distilled iForest (every interior point shares the
// label), merges adjacent same-label hypercubes, and installs the label-0
// (benign) hypercubes as whitelist rules.
//
// Enumerating the raw Cartesian grid is infeasible for 13 features, so we
// enumerate only *reachable* regions with a tree-product sweep: intersect
// the t trees' leaf boxes recursively in quantised integer space, carrying a
// partial aggregate (vote count, or path-length sum for the conventional
// iForest baseline) and pruning subtrees whose final label is already
// decided. The result is an exact partition of feature space that agrees
// with the forest at every quantised point.
//
// Both iGuard's labelled forest (majority vote) and the conventional
// iForest baseline (expected-path-length threshold, as HorusEye deploys it)
// compile through the same machinery, which is what makes the Table 1
// TCAM comparison apples-to-apples.
#pragma once

#include <cstdint>
#include <vector>

#include "core/guided_iforest.hpp"
#include "ml/iforest.hpp"
#include "ml/rng.hpp"
#include "rules/compiled_table.hpp"
#include "rules/quantize.hpp"
#include "rules/rule_table.hpp"
#include "rules/range_rule.hpp"

namespace iguard::core {

/// A tree with integer split levels: go left iff key[feature] < level.
/// Leaves carry a payload: 0/1 label (iGuard) or path length (baseline).
struct QuantizedNode {
  int feature = -1;
  std::uint32_t level = 0;
  int left = -1;
  int right = -1;
  double payload = 0.0;
};

struct QuantizedTree {
  std::vector<QuantizedNode> nodes;
  int root = 0;

  double payload_at(std::span<const std::uint32_t> key) const;
  double min_payload() const;
  double max_payload() const;
};

/// Quantise a distilled guided tree (payload = leaf label).
QuantizedTree quantize_tree(const GuidedTree& tree, const rules::Quantizer& q);
/// Quantise a conventional iTree (payload = depth + c(leaf.size)).
QuantizedTree quantize_tree(const ml::ITree& tree, const rules::Quantizer& q);

struct WhitelistConfig {
  /// Abort if the sweep produces more than this many regions (explosion
  /// guard; iGuard's extra stopping criterion keeps real counts far lower).
  std::size_t max_regions = 2'000'000;
  /// Work cap on sweep node visits (bounds compile time, not just output).
  std::size_t max_steps = 30'000'000;
  bool merge_adjacent = true;
  /// Optional per-field clip applied to every benign rule (quantised
  /// levels). A whitelist must not admit feature values outside the benign
  /// training support — split cells at the domain edge otherwise extend to
  /// values no benign flow ever produced (e.g. destination ports below any
  /// benign service port). Empty = no clipping.
  std::vector<rules::FieldRange> clip;
};

struct WhitelistResult {
  std::vector<rules::RangeRule> rules;  // label-0 hypercubes (merged)
  std::size_t regions_total = 0;
  std::size_t regions_benign = 0;
  std::size_t rules_before_merge = 0;
};

/// Compile iGuard's distilled forest: region label = strict-majority vote.
WhitelistResult compile_majority(const GuidedIsolationForest& forest,
                                 const rules::Quantizer& q,
                                 const WhitelistConfig& cfg = {});

/// Compile the conventional-iForest baseline: region label = 1 (malicious)
/// iff the summed path length < num_trees * expected_path_threshold.
WhitelistResult compile_pathlength(const ml::IsolationForest& forest,
                                   const rules::Quantizer& q,
                                   const WhitelistConfig& cfg = {});

/// E[h] threshold equivalent to an anomaly-score threshold s:
/// score = 2^(-E/c(psi)) > s  <=>  E < -c(psi) * log2(s).
double path_threshold_from_score(double score_threshold, std::size_t psi);

/// Quantised bounding box of the data rows (per-field [q(lo), q(hi)]) — the
/// support clip for WhitelistConfig::clip. `trim` discards that fraction of
/// each tail before taking the extremes (robust support estimation: a small
/// poisoned minority in the capture must not widen the whitelist support).
std::vector<rules::FieldRange> support_clip(const ml::Matrix& data, const rules::Quantizer& q,
                                            double trim = 0.02);

/// How forest whitelists actually deploy on an RMT switch: one rule table
/// per tree plus a match counter — a packet's key gathers one benign vote
/// per table that matches, and the flow is benign iff benign votes reach a
/// strict majority. TCAM cost is the *sum* of per-tree rule counts (linear
/// in t), unlike the single-table tree-product whose rule count multiplies.
struct VoteWhitelist {
  std::vector<rules::RuleTable> tables;  // one per tree
  std::size_t tree_count = 0;

  /// 0 = benign (majority of tables match), 1 = malicious.
  int classify(std::span<const std::uint32_t> key) const;
  /// Fraction of tables *not* matching (malicious vote share).
  double malicious_vote_fraction(std::span<const std::uint32_t> key) const;
  std::size_t total_rules() const;
  const std::vector<rules::RangeRule>& tree_rules(std::size_t t) const {
    return tables[t].rules();
  }
  /// All rules concatenated (resource accounting).
  std::vector<rules::RangeRule> flattened() const;
};

/// VoteWhitelist pre-compiled through the interval-bitmap match engine
/// (rules/compiled_table.hpp): same vote semantics, but each per-tree lookup
/// is O(fields log rules) instead of O(rules × fields) and performs no heap
/// allocation — the engine the pipeline simulator runs at replay time.
struct CompiledVoteWhitelist {
  std::vector<rules::CompiledRuleTable> tables;  // one per tree
  std::size_t tree_count = 0;

  CompiledVoteWhitelist() = default;
  explicit CompiledVoteWhitelist(const VoteWhitelist& wl);

  /// 0 = benign (majority of tables match), 1 = malicious — bit-identical
  /// to VoteWhitelist::classify. Stops consulting tables once the vote is
  /// decided (benign majority reached, or unreachable by the remainder).
  int classify(std::span<const std::uint32_t> key) const;
  /// Fraction of tables *not* matching (malicious vote share).
  double malicious_vote_fraction(std::span<const std::uint32_t> key) const;
};

/// Per-tree compilation of iGuard's distilled forest: tree t's table holds
/// its benign leaves' support boxes (merged, clipped).
VoteWhitelist compile_per_tree(const GuidedIsolationForest& forest,
                               const rules::Quantizer& q, const WhitelistConfig& cfg = {});

/// Per-tree compilation of the conventional-iForest baseline: tree t's
/// table holds the cells of leaves whose path length clears the threshold
/// (HorusEye-style deployment).
VoteWhitelist compile_per_tree(const ml::IsolationForest& forest, const rules::Quantizer& q,
                               const WhitelistConfig& cfg = {});

/// The paper's literal hypercube labeller: draw a random interior point of
/// each region and ask the forest (used in tests to cross-check the exact
/// vote-count labels; must agree everywhere).
int sample_label_majority(const GuidedIsolationForest& forest, const rules::Quantizer& q,
                          const rules::RangeRule& region, ml::Rng& rng);

}  // namespace iguard::core
