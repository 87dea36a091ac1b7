#include "core/whitelist.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace iguard::core {

namespace {

// Shared recursive machinery: sweep the product of quantised trees over the
// integer domain, carrying an aggregated payload, with early decisions.
struct Sweep {
  const std::vector<QuantizedTree>& trees;
  std::uint32_t domain_max;
  std::size_t max_regions;
  std::size_t max_steps;
  std::size_t steps = 0;

  // decide(acc, next_tree): label if already determined, else -1.
  std::function<int(double, std::size_t)> decide;
  // finalize(acc): label once all trees are consumed.
  std::function<int(double)> finalize;

  std::size_t regions_total = 0;
  std::size_t regions_benign = 0;
  std::vector<rules::RangeRule> benign;

  void emit(const std::vector<rules::FieldRange>& box, int label) {
    ++regions_total;
    if (regions_total > max_regions) {
      throw std::runtime_error("whitelist compilation: region explosion");
    }
    if (label == 0) {
      ++regions_benign;
      benign.push_back({box, 0, 0});
    }
  }

  // Advance to tree `ti` with partial aggregate `acc`.
  void next_tree(std::size_t ti, std::vector<rules::FieldRange>& box, double acc) {
    const int decided = decide(acc, ti);
    if (decided >= 0) {
      emit(box, decided);
      return;
    }
    if (ti == trees.size()) {
      emit(box, finalize(acc));
      return;
    }
    descend(ti, trees[ti].root, box, acc);
  }

  // Descend one tree, splitting the box at internal nodes where needed.
  void descend(std::size_t ti, int node, std::vector<rules::FieldRange>& box, double acc) {
    if (++steps > max_steps) {
      throw std::runtime_error("whitelist compilation: work cap exceeded");
    }
    const auto& nd = trees[ti].nodes[static_cast<std::size_t>(node)];
    if (nd.feature < 0) {
      next_tree(ti + 1, box, acc + nd.payload);
      return;
    }
    const auto f = static_cast<std::size_t>(nd.feature);
    const rules::FieldRange saved = box[f];
    // Left: key[f] < level  =>  [lo, level-1].
    if (nd.level > saved.lo) {
      box[f] = {saved.lo, std::min(saved.hi, nd.level - 1)};
      if (!box[f].empty()) descend(ti, nd.left, box, acc);
    }
    // Right: key[f] >= level  =>  [level, hi].
    if (saved.hi >= nd.level) {
      box[f] = {std::max(saved.lo, nd.level), saved.hi};
      if (!box[f].empty()) descend(ti, nd.right, box, acc);
    }
    box[f] = saved;
  }
};

// Clip benign rules to the configured support box; drops emptied rules.
void apply_clip(std::vector<rules::RangeRule>& rules, const WhitelistConfig& cfg) {
  if (cfg.clip.empty()) return;
  std::vector<rules::RangeRule> kept;
  for (auto& r : rules) {
    bool alive = true;
    for (std::size_t j = 0; j < r.fields.size() && alive; ++j) {
      r.fields[j].lo = std::max(r.fields[j].lo, cfg.clip[j].lo);
      r.fields[j].hi = std::min(r.fields[j].hi, cfg.clip[j].hi);
      alive = !r.fields[j].empty();
    }
    if (alive) kept.push_back(std::move(r));
  }
  rules = std::move(kept);
}

WhitelistResult run_sweep(Sweep& sweep, std::size_t field_count,
                          const WhitelistConfig& cfg) {
  std::vector<rules::FieldRange> full(field_count, {0, sweep.domain_max});
  sweep.next_tree(0, full, 0.0);

  WhitelistResult out;
  out.regions_total = sweep.regions_total;
  out.regions_benign = sweep.regions_benign;
  apply_clip(sweep.benign, cfg);
  out.rules_before_merge = sweep.benign.size();
  out.rules = cfg.merge_adjacent ? rules::merge_rules(std::move(sweep.benign))
                                 : std::move(sweep.benign);
  return out;
}

template <typename Node>
int quantize_nodes_impl(const std::vector<Node>& src, int idx, const rules::Quantizer& q,
                        std::vector<QuantizedNode>& dst, double payload_of_leaf,
                        const std::function<double(const Node&)>& payload) {
  const auto& n = src[static_cast<std::size_t>(idx)];
  const int self = static_cast<int>(dst.size());
  dst.push_back({});
  if (n.feature < 0) {
    dst[static_cast<std::size_t>(self)].payload = payload ? payload(n) : payload_of_leaf;
    return self;
  }
  dst[static_cast<std::size_t>(self)].feature = n.feature;
  dst[static_cast<std::size_t>(self)].level =
      q.quantize_value(static_cast<std::size_t>(n.feature), n.threshold);
  const int l = quantize_nodes_impl(src, n.left, q, dst, payload_of_leaf, payload);
  const int r = quantize_nodes_impl(src, n.right, q, dst, payload_of_leaf, payload);
  dst[static_cast<std::size_t>(self)].left = l;
  dst[static_cast<std::size_t>(self)].right = r;
  return self;
}

}  // namespace

double QuantizedTree::payload_at(std::span<const std::uint32_t> key) const {
  int i = root;
  while (nodes[static_cast<std::size_t>(i)].feature >= 0) {
    const auto& n = nodes[static_cast<std::size_t>(i)];
    i = key[static_cast<std::size_t>(n.feature)] < n.level ? n.left : n.right;
  }
  return nodes[static_cast<std::size_t>(i)].payload;
}

double QuantizedTree::min_payload() const {
  double v = std::numeric_limits<double>::infinity();
  for (const auto& n : nodes)
    if (n.feature < 0) v = std::min(v, n.payload);
  return v;
}

double QuantizedTree::max_payload() const {
  double v = -std::numeric_limits<double>::infinity();
  for (const auto& n : nodes)
    if (n.feature < 0) v = std::max(v, n.payload);
  return v;
}

namespace {

int make_qleaf(std::vector<QuantizedNode>& dst, double payload) {
  const int self = static_cast<int>(dst.size());
  dst.push_back({});
  dst[static_cast<std::size_t>(self)].payload = payload;
  return self;
}

// A benign guided leaf is a bounded support hypercube inside its split
// cell: points in the cell but outside the box are malicious. Encode the
// box as a chain of guard splits so the generic region sweep handles it.
int quantize_guided_node(const std::vector<GuidedNode>& src, int idx,
                         const rules::Quantizer& q, std::vector<QuantizedNode>& dst) {
  const auto& n = src[static_cast<std::size_t>(idx)];
  if (n.feature >= 0) {
    const int self = static_cast<int>(dst.size());
    dst.push_back({});
    dst[static_cast<std::size_t>(self)].feature = n.feature;
    dst[static_cast<std::size_t>(self)].level =
        q.quantize_value(static_cast<std::size_t>(n.feature), n.threshold);
    const int l = quantize_guided_node(src, n.left, q, dst);
    const int r = quantize_guided_node(src, n.right, q, dst);
    dst[static_cast<std::size_t>(self)].left = l;
    dst[static_cast<std::size_t>(self)].right = r;
    return self;
  }
  if (n.label == 1) return make_qleaf(dst, 1.0);

  struct Guard {
    int feature;
    std::uint32_t level;
    bool malicious_left;  // true: x < level is malicious; false: x >= level
  };
  std::vector<Guard> guards;
  for (std::size_t j = 0; j < n.box_lo.size(); ++j) {
    if (std::isfinite(n.box_lo[j])) {
      const std::uint32_t lo = q.quantize_value(j, n.box_lo[j]);
      if (lo > 0) guards.push_back({static_cast<int>(j), lo, true});
    }
    if (std::isfinite(n.box_hi[j])) {
      const std::uint32_t hi = q.quantize_value(j, n.box_hi[j]);
      if (hi < q.domain_max()) guards.push_back({static_cast<int>(j), hi + 1, false});
    }
  }
  if (guards.empty()) return make_qleaf(dst, 0.0);

  // Build the chain back-to-front: innermost target is the benign leaf.
  int next = make_qleaf(dst, 0.0);
  for (std::size_t g = guards.size(); g-- > 0;) {
    const int mal = make_qleaf(dst, 1.0);
    const int self = static_cast<int>(dst.size());
    dst.push_back({});
    dst[static_cast<std::size_t>(self)].feature = guards[g].feature;
    dst[static_cast<std::size_t>(self)].level = guards[g].level;
    dst[static_cast<std::size_t>(self)].left = guards[g].malicious_left ? mal : next;
    dst[static_cast<std::size_t>(self)].right = guards[g].malicious_left ? next : mal;
    next = self;
  }
  return next;
}

}  // namespace

QuantizedTree quantize_tree(const GuidedTree& tree, const rules::Quantizer& q) {
  QuantizedTree out;
  out.root = quantize_guided_node(tree.nodes, 0, q, out.nodes);
  return out;
}

QuantizedTree quantize_tree(const ml::ITree& tree, const rules::Quantizer& q) {
  QuantizedTree out;
  std::function<double(const ml::ITreeNode&)> payload = [](const ml::ITreeNode& n) {
    return static_cast<double>(n.depth) + ml::average_path_length(n.size);
  };
  quantize_nodes_impl<ml::ITreeNode>(tree.nodes, 0, q, out.nodes, 0.0, payload);
  return out;
}

namespace {

// Quantised benign support boxes of one tree (label-0 leaves only). Leaves
// no training sample reached have no observed benign support — a whitelist
// should not admit them, so they emit no rule (the model's majority vote
// still smooths over the rare benign flow that lands there).
std::vector<std::vector<rules::FieldRange>> benign_boxes(const GuidedTree& tree,
                                                         const rules::Quantizer& q) {
  std::vector<std::vector<rules::FieldRange>> out;
  for (const auto& n : tree.nodes) {
    if (n.feature >= 0 || n.label != 0 || n.train_count < 2) continue;
    std::vector<rules::FieldRange> box(q.field_count());
    for (std::size_t j = 0; j < q.field_count(); ++j) {
      const std::uint32_t lo =
          std::isfinite(n.box_lo[j]) ? q.quantize_value(j, n.box_lo[j]) : 0u;
      const std::uint32_t hi =
          std::isfinite(n.box_hi[j]) ? q.quantize_value(j, n.box_hi[j]) : q.domain_max();
      box[j] = {lo, hi};
    }
    out.push_back(std::move(box));
  }
  return out;
}

// a := a intersect b; returns false if empty.
bool intersect_box(std::vector<rules::FieldRange>& a,
                   const std::vector<rules::FieldRange>& b) {
  for (std::size_t j = 0; j < a.size(); ++j) {
    a[j].lo = std::max(a[j].lo, b[j].lo);
    a[j].hi = std::min(a[j].hi, b[j].hi);
    if (a[j].empty()) return false;
  }
  return true;
}

bool box_contains(const std::vector<rules::FieldRange>& outer,
                  const std::vector<rules::FieldRange>& inner) {
  for (std::size_t j = 0; j < outer.size(); ++j) {
    if (inner[j].lo < outer[j].lo || inner[j].hi > outer[j].hi) return false;
  }
  return true;
}

}  // namespace

WhitelistResult compile_majority(const GuidedIsolationForest& forest,
                                 const rules::Quantizer& q, const WhitelistConfig& cfg) {
  // A tree votes benign exactly when x lies inside one of its benign leaf
  // support boxes, so the forest's benign region is the union, over all
  // majority-sized tree subsets S, of intersections of one benign box per
  // tree in S. Whitelist rules may overlap, so emitting that union directly
  // is exact — no disjoint space partition needed.
  const std::size_t t = forest.trees().size();
  const std::size_t need = t / 2 + 1;  // strict majority
  std::vector<std::vector<std::vector<rules::FieldRange>>> boxes;
  boxes.reserve(t);
  for (const auto& tree : forest.trees()) boxes.push_back(benign_boxes(tree, q));

  WhitelistResult out;
  std::vector<rules::RangeRule> rules;

  // Enumerate tree subsets of exactly `need` members (larger supersets are
  // implied), intersecting incrementally with empty-pruning.
  std::vector<std::size_t> subset;
  auto recurse_boxes = [&](auto&& self, std::size_t depth,
                           std::vector<rules::FieldRange> acc) -> void {
    if (depth == subset.size()) {
      ++out.regions_total;
      ++out.regions_benign;
      if (out.regions_total > cfg.max_regions) {
        throw std::runtime_error("whitelist compilation: region explosion");
      }
      rules.push_back({std::move(acc), 0, 0});
      return;
    }
    for (const auto& b : boxes[subset[depth]]) {
      auto next = acc;
      if (intersect_box(next, b)) self(self, depth + 1, std::move(next));
    }
  };
  auto choose = [&](auto&& self, std::size_t start) -> void {
    if (subset.size() == need) {
      recurse_boxes(recurse_boxes, 0,
                    std::vector<rules::FieldRange>(q.field_count(),
                                                   {0u, q.domain_max()}));
      return;
    }
    for (std::size_t i = start; i < t; ++i) {
      subset.push_back(i);
      self(self, i + 1);
      subset.pop_back();
    }
  };
  if (t > 0) choose(choose, 0);

  apply_clip(rules, cfg);

  // Absorption: drop rules fully contained in another rule.
  std::vector<bool> dead(rules.size(), false);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (dead[i]) continue;
    for (std::size_t j = 0; j < rules.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (box_contains(rules[i].fields, rules[j].fields)) dead[j] = true;
    }
  }
  std::vector<rules::RangeRule> kept;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!dead[i]) kept.push_back(std::move(rules[i]));
  }
  out.rules_before_merge = kept.size();
  out.rules = cfg.merge_adjacent ? rules::merge_rules(std::move(kept)) : std::move(kept);
  return out;
}

double path_threshold_from_score(double score_threshold, std::size_t psi) {
  const double c = ml::average_path_length(psi);
  return -c * std::log2(std::clamp(score_threshold, 1e-9, 1.0 - 1e-9));
}

WhitelistResult compile_pathlength(const ml::IsolationForest& forest,
                                   const rules::Quantizer& q, const WhitelistConfig& cfg) {
  // Deployable (HorusEye-style) semantics: each leaf votes on its own —
  // malicious iff its path length (depth + c(leaf size)) is below the
  // threshold equivalent of the forest's score threshold — and the forest
  // takes a majority vote. (The exact sum-over-trees statistic is not
  // compilable: its tree product admits no early majority pruning and
  // explodes combinatorially; per-leaf thresholding is what real rule
  // deployments of iForest do, at some accuracy cost.)
  const double e_thr =
      path_threshold_from_score(forest.threshold(), forest.effective_subsample());
  std::vector<QuantizedTree> qtrees;
  qtrees.reserve(forest.trees().size());
  for (const auto& t : forest.trees()) {
    QuantizedTree qt = quantize_tree(t, q);
    for (auto& n : qt.nodes) {
      if (n.feature < 0) n.payload = n.payload < e_thr ? 1.0 : 0.0;
    }
    qtrees.push_back(std::move(qt));
  }
  const double t_count = static_cast<double>(qtrees.size());

  Sweep sweep{qtrees, q.domain_max(), cfg.max_regions, cfg.max_steps, {}, {}};
  sweep.decide = [t_count](double acc, std::size_t done) -> int {
    if (2.0 * acc > t_count) return 1;
    const double remaining = t_count - static_cast<double>(done);
    if (2.0 * (acc + remaining) <= t_count) return 0;
    return -1;
  };
  sweep.finalize = [t_count](double acc) { return 2.0 * acc > t_count ? 1 : 0; };
  return run_sweep(sweep, q.field_count(), cfg);
}

int VoteWhitelist::classify(std::span<const std::uint32_t> key) const {
  std::size_t benign = 0;
  for (const auto& t : tables) benign += t.match(key).has_value() ? 1 : 0;
  // Strict-majority-malicious (ties benign), matching the forest vote.
  return 2 * (tree_count - benign) > tree_count ? 1 : 0;
}

double VoteWhitelist::malicious_vote_fraction(std::span<const std::uint32_t> key) const {
  if (tree_count == 0) return 1.0;
  std::size_t benign = 0;
  for (const auto& t : tables) benign += t.match(key).has_value() ? 1 : 0;
  return static_cast<double>(tree_count - benign) / static_cast<double>(tree_count);
}

CompiledVoteWhitelist::CompiledVoteWhitelist(const VoteWhitelist& wl)
    : tree_count(wl.tree_count) {
  tables.reserve(wl.tables.size());
  for (const auto& t : wl.tables) tables.emplace_back(t);
}

int CompiledVoteWhitelist::classify(std::span<const std::uint32_t> key) const {
  // Benign iff benign votes reach ceil(t/2): 2*(t-b) > t  <=>  b < t/2.
  // The count is monotone, so stop as soon as the verdict is decided —
  // either the majority is reached or the remaining tables cannot reach it.
  const std::size_t need = (tree_count + 1) / 2;
  std::size_t benign = 0;
  std::size_t remaining = tables.size();
  for (const auto& t : tables) {
    --remaining;
    benign += t.matches_any(key) ? 1 : 0;
    if (benign >= need) return 0;
    if (benign + remaining < need) return 1;
  }
  // Only reachable with zero tables (ties benign, matching VoteWhitelist).
  return 2 * (tree_count - benign) > tree_count ? 1 : 0;
}

double CompiledVoteWhitelist::malicious_vote_fraction(std::span<const std::uint32_t> key) const {
  if (tree_count == 0) return 1.0;
  std::size_t benign = 0;
  for (const auto& t : tables) benign += t.matches_any(key) ? 1 : 0;
  return static_cast<double>(tree_count - benign) / static_cast<double>(tree_count);
}

std::size_t VoteWhitelist::total_rules() const {
  std::size_t n = 0;
  for (const auto& t : tables) n += t.size();
  return n;
}

std::vector<rules::RangeRule> VoteWhitelist::flattened() const {
  std::vector<rules::RangeRule> all;
  for (const auto& t : tables) {
    all.insert(all.end(), t.rules().begin(), t.rules().end());
  }
  return all;
}

namespace {
std::vector<rules::RangeRule> finish_tree_rules(std::vector<rules::RangeRule> rules,
                                                const WhitelistConfig& cfg) {
  apply_clip(rules, cfg);
  return cfg.merge_adjacent ? rules::merge_rules(std::move(rules)) : rules;
}
}  // namespace

VoteWhitelist compile_per_tree(const GuidedIsolationForest& forest,
                               const rules::Quantizer& q, const WhitelistConfig& cfg) {
  VoteWhitelist out;
  out.tree_count = forest.trees().size();
  for (const auto& tree : forest.trees()) {
    std::vector<rules::RangeRule> rules;
    for (auto& box : benign_boxes(tree, q)) rules.push_back({std::move(box), 0, 0});
    out.tables.emplace_back(finish_tree_rules(std::move(rules), cfg));
  }
  return out;
}

VoteWhitelist compile_per_tree(const ml::IsolationForest& forest, const rules::Quantizer& q,
                               const WhitelistConfig& cfg) {
  const double e_thr =
      path_threshold_from_score(forest.threshold(), forest.effective_subsample());
  VoteWhitelist out;
  out.tree_count = forest.trees().size();
  for (const auto& tree : forest.trees()) {
    const QuantizedTree qt = quantize_tree(tree, q);
    // Enumerate this one tree's benign leaf cells.
    std::vector<rules::RangeRule> rules;
    std::vector<rules::FieldRange> box(q.field_count(), {0u, q.domain_max()});
    auto walk = [&](auto&& self, int idx) -> void {
      const auto& n = qt.nodes[static_cast<std::size_t>(idx)];
      if (n.feature < 0) {
        if (n.payload >= e_thr) rules.push_back({box, 0, 0});
        return;
      }
      const auto f = static_cast<std::size_t>(n.feature);
      const rules::FieldRange saved = box[f];
      if (n.level > saved.lo) {
        box[f] = {saved.lo, std::min(saved.hi, n.level - 1)};
        if (!box[f].empty()) self(self, n.left);
      }
      if (saved.hi >= n.level) {
        box[f] = {std::max(saved.lo, n.level), saved.hi};
        if (!box[f].empty()) self(self, n.right);
      }
      box[f] = saved;
    };
    walk(walk, qt.root);
    out.tables.emplace_back(finish_tree_rules(std::move(rules), cfg));
  }
  return out;
}

std::vector<rules::FieldRange> support_clip(const ml::Matrix& data, const rules::Quantizer& q,
                                            double trim) {
  if (data.rows() == 0) return {};
  std::vector<rules::FieldRange> clip(q.field_count(), {0, 0});
  std::vector<double> col(data.rows());
  for (std::size_t j = 0; j < q.field_count(); ++j) {
    for (std::size_t i = 0; i < data.rows(); ++i) col[i] = data(i, j);
    std::sort(col.begin(), col.end());
    const std::size_t k = std::min(
        data.rows() - 1,
        static_cast<std::size_t>(trim * static_cast<double>(data.rows())));
    clip[j] = {q.quantize_value(j, col[k]), q.quantize_value(j, col[col.size() - 1 - k])};
  }
  return clip;
}

int sample_label_majority(const GuidedIsolationForest& forest, const rules::Quantizer& q,
                          const rules::RangeRule& region, ml::Rng& rng) {
  std::vector<double> x(region.fields.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    const auto& f = region.fields[j];
    const std::uint32_t level =
        f.lo + static_cast<std::uint32_t>(rng.index(static_cast<std::size_t>(f.hi - f.lo) + 1));
    x[j] = q.dequantize(j, level);
  }
  return forest.predict(x);
}

}  // namespace iguard::core
