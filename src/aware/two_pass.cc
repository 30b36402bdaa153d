#include "aware/two_pass.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>

#include "aware/kd_hierarchy.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/settle.h"
#include "sampling/stream_varopt.h"

namespace sas {
namespace {

/// The engine behind every two-pass sampler. Pass 1 tracks tau_s and draws
/// the guide S', which EndPass1 turns into a partition P; pass 2
/// IO-AGGREGATEs each key into its cell; Finalize settles the cells'
/// active keys along P. P provides num_cells(), CellOf(position, item) and
/// a settle view whose entries are cells. The guide keys carry
/// their stream positions as ids (StreamVarOpt never reads ids), and pass 2
/// counts positions the same way, so partitions read structure by position.
class TwoPassEngine {
 public:
  /// The guide draws from `guide_rng`; pass 2 and the settle from `rng`.
  TwoPassEngine(double s, const TwoPassConfig& cfg, Rng guide_rng, Rng rng)
      : pass1_(Pass1State{StreamTau(s),
                          StreamVarOpt(static_cast<std::size_t>(std::max(
                                           1.0, cfg.sprime_factor * s)),
                                       guide_rng)}),
        rng_(rng) {}

  void Pass1(const WeightedKey& item) {
    pass1_->tau.Push(item.weight);
    pass1_->guide.Push(
        {static_cast<KeyId>(pass1_->count++), item.weight, item.pt});
  }

  /// Ends pass 1: fixes tau, releases the pass-1 state (as a streaming
  /// system would) and returns the partition `make(open guide keys)`, with
  /// an empty pass-2 slot per cell.
  template <class MakePartition>
  auto EndPass1(const MakePartition& make) {
    tau_ = pass1_->tau.tau();
    const Sample guide = pass1_->guide.ToSample();
    pass1_.reset();
    std::vector<WeightedKey> open;
    for (const auto& k : guide.entries()) {
      if (IppsProbability(k.weight, tau_) < 1.0) open.push_back(k);
    }
    auto partition = make(open);
    slot_key_.assign(partition.num_cells(), {});
    slot_p_.assign(partition.num_cells(), 0.0);
    return partition;
  }

  /// IO-AGGREGATE (Algorithm 3) of the next stream item: a certain key
  /// joins the sample; an open key is pair-aggregated with its cell's
  /// active key (an empty cell holds p = 0), whichever becomes certain
  /// joins the sample, and the one left open, if any, stays active.
  template <class Partition>
  void Pass2(const WeightedKey& item, const Partition& partition) {
    const std::size_t position = pass2_count_++;
    if (item.weight <= 0.0) return;
    double p = SnapProbability(IppsProbability(item.weight, tau_));
    if (p == 1.0) sample_.push_back(item);
    if (IsSet(p)) return;
    const std::size_t cell = partition.CellOf(position, item);
    double& q = slot_p_[cell];
    if (q != 0.0) {
      PairAggregate(&p, &q, &rng_);
      if (q == 1.0) sample_.push_back(slot_key_[cell]);
      if (p == 1.0) sample_.push_back(item);
    }
    if (!IsSet(p)) {
      slot_key_[cell] = item;
      q = p;
    } else if (IsSet(q)) {
      q = 0.0;
    }
  }

  /// Settles the active keys along the partition. The sample lists the
  /// pass-2 picks in stream order, then the settled keys in cell order.
  template <class Partition>
  Sample Finalize(const Partition& partition) {
    SettleScratch scratch;
    Settle(slot_p_.data(), partition, &rng_, &scratch);
    for (std::size_t c = 0; c < slot_p_.size(); ++c) {
      if (slot_p_[c] == 1.0) sample_.push_back(slot_key_[c]);
    }
    return Sample(tau_, std::move(sample_));
  }

 private:
  struct Pass1State {
    StreamTau tau;
    StreamVarOpt guide;
    std::size_t count = 0;
  };
  std::optional<Pass1State> pass1_;
  // sas-lint: allow(unforked-rng): member slot only; every constructor
  // copies it from the caller-provided generator.
  Rng rng_;
  double tau_ = 0.0;
  std::size_t pass2_count_ = 0;
  std::vector<WeightedKey> slot_key_;
  std::vector<double> slot_p_;
  std::vector<WeightedKey> sample_;
};

/// Every partition puts its cells on the nodes of a tree and is settled
/// along it: node v owns cell cell_of_node[v], or none when it is
/// kNoEntry. Mark() numbers the owning nodes in node order.
struct NodeCells {
  std::vector<std::size_t> cell_of_node;
  std::size_t cells = 0;

  template <class Owns>
  void Mark(std::size_t num_nodes, Owns owns) {
    cell_of_node.assign(num_nodes, kNoEntry);
    for (std::size_t v = 0; v < num_nodes; ++v) {
      if (owns(v)) cell_of_node[v] = cells++;
    }
  }
  std::size_t num_cells() const { return cells; }
  std::size_t num_nodes() const { return cell_of_node.size(); }
  std::span<const std::size_t> Own(std::size_t v) const {
    if (cell_of_node[v] == kNoEntry) return {};
    return {&cell_of_node[v], 1};
  }
};

/// Cells settled left to right in one chain (order, disjoint ranges): a
/// root whose children, nodes 1..n, own cells 0..n-1; the root chains
/// their carries in cell order. `route(position, item)` gives a key's
/// cell.
template <class Route>
struct ChainPartition : NodeCells {
  Route route;

  ChainPartition(std::size_t num_cells, Route r) : route(std::move(r)) {
    Mark(num_cells + 1, [](std::size_t v) { return v > 0; });
  }
  std::size_t CellOf(std::size_t position, const WeightedKey& item) const {
    return route(position, item);
  }
  template <class F>
  void ForEachChild(std::size_t v, F f) const {
    if (v == 0) {
      for (std::size_t c = 1; c < num_nodes(); ++c) f(c);
    }
  }
};

/// Product: the leaves of a kd-tree over the open guide keys (uniform
/// mass), settled bottom-up along it (the partition *is* the hierarchy h
/// of Section 5). An empty guide leaves one catch-all cell.
struct KdPartition : NodeCells {
  KdHierarchy tree;

  explicit KdPartition(const std::vector<WeightedKey>& guide) {
    std::vector<Point2D> pts;
    for (const auto& k : guide) pts.push_back(k.pt);
    tree = KdHierarchy::Build(pts, std::vector<double>(pts.size(), 1.0));
    // An empty tree keeps node 0 as the one catch-all cell.
    const auto& nodes = tree.nodes();
    Mark(std::max<std::size_t>(nodes.size(), 1),
         [&](std::size_t v) { return nodes.empty() || nodes[v].IsLeaf(); });
  }
  std::size_t CellOf(std::size_t, const WeightedKey& item) const {
    const int v = tree.LocateLeaf(item.pt);
    return v == KdHierarchy::kNull ? 0 : cell_of_node[v];
  }
  template <class F>
  void ForEachChild(std::size_t v, F f) const {
    if (cell_of_node[v] != kNoEntry) return;  // a leaf
    f(static_cast<std::size_t>(tree.nodes()[v].left));
    f(static_cast<std::size_t>(tree.nodes()[v].right));
  }
};

/// Hierarchy, ancestor variant: every ancestor of an open guide key is
/// selected, and the root as the catch-all; a key's cell is its lowest
/// selected ancestor. Each node chains its own active key, then its
/// children's carries.
struct AncestorPartition : NodeCells {
  const Hierarchy& h;

  AncestorPartition(const std::vector<WeightedKey>& guide,
                    const Hierarchy& hierarchy)
      : h(hierarchy) {
    std::vector<char> selected(static_cast<std::size_t>(h.num_nodes()), 0);
    for (const auto& k : guide) {
      for (int v = h.leaf_of_key(k.id); v != Hierarchy::kNoParent;
           v = h.parent(v)) {
        if (selected[v]) break;  // ancestors above are already selected
        selected[v] = 1;
      }
    }
    Mark(selected.size(), [&](std::size_t v) {
      return v == static_cast<std::size_t>(h.root()) || selected[v];
    });
  }
  std::size_t CellOf(std::size_t position, const WeightedKey&) const {
    int v = h.leaf_of_key(static_cast<KeyId>(position));
    while (cell_of_node[v] == kNoEntry) v = h.parent(v);
    return cell_of_node[v];
  }
  template <class F>
  void ForEachChild(std::size_t v, F f) const {
    for (int c : h.children(static_cast<int>(v))) {
      f(static_cast<std::size_t>(c));
    }
  }
};

/// Both passes over an in-memory stream, with the partition
/// `make_partition(open guide keys)`: the one Section 5 driver. The guide
/// draws from `guide_rng`, pass 2 and the settle from `rng`.
template <class MakePartition>
Sample RunTwoPass(const std::vector<WeightedKey>& items, double s,
                  const TwoPassConfig& cfg, Rng guide_rng, Rng rng,
                  const MakePartition& make_partition) {
  TwoPassEngine engine(s, cfg, guide_rng, rng);
  for (const auto& it : items) engine.Pass1(it);
  const auto partition = engine.EndPass1(make_partition);
  for (const auto& it : items) engine.Pass2(it, partition);
  return engine.Finalize(partition);
}

/// RunTwoPass with the guide drawing from rng->Split() and pass 2 from a
/// second split.
template <class MakePartition>
Sample RunTwoPass(const std::vector<WeightedKey>& items, double s,
                  const TwoPassConfig& cfg, Rng* rng,
                  const MakePartition& make_partition) {
  Rng guide_rng = rng->Split();
  Rng pass2_rng = rng->Split();
  return RunTwoPass(items, s, cfg, guide_rng, pass2_rng, make_partition);
}

}  // namespace

Sample TwoPassProductSample(const std::vector<WeightedKey>& items, double s,
                            const TwoPassConfig& cfg, Rng* rng) {
  Rng r = rng->Split();
  Rng guide = r.Split();
  return RunTwoPass(items, s, cfg, guide, r, [](const auto& open) {
    return KdPartition(open);
  });
}

Sample TwoPassOrderSample(const std::vector<WeightedKey>& items, double s,
                          const TwoPassConfig& cfg, Rng* rng) {
  return RunTwoPass(items, s, cfg, rng, [](const auto& guide) {
    // Boundaries at the open guide keys: cell j holds the keys with x in
    // (b_{j-1}, b_j].
    std::vector<Coord> bounds;
    for (const auto& k : guide) bounds.push_back(k.pt.x);
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    const std::size_t cells = bounds.size() + 1;
    auto route = [b = std::move(bounds)](std::size_t, const WeightedKey& it) {
      return static_cast<std::size_t>(
          std::lower_bound(b.begin(), b.end(), it.pt.x) - b.begin());
    };
    return ChainPartition(cells, std::move(route));
  });
}

Sample TwoPassDisjointSample(const std::vector<WeightedKey>& items,
                             const std::vector<int>& range_of,
                             int num_ranges, double s,
                             const TwoPassConfig& cfg, Rng* rng) {
  assert(items.size() == range_of.size());
  return RunTwoPass(items, s, cfg, rng, [&](const auto& guide) {
    // A cell per range represented in the guide, plus one per maximal run
    // of unrepresented ranges (< 1 probability mass w.h.p.).
    std::vector<char> seen(static_cast<std::size_t>(num_ranges), 0);
    for (const auto& k : guide) seen[range_of[k.id]] = 1;
    std::vector<std::size_t> cell_of_range(seen.size());
    std::size_t cells = 0;
    for (std::size_t r = 0; r < seen.size(); ++r) {
      if (seen[r] || r == 0 || seen[r - 1]) ++cells;
      cell_of_range[r] = cells - 1;
    }
    auto route = [&range_of, c = std::move(cell_of_range)](
                     std::size_t position, const WeightedKey&) {
      return c[static_cast<std::size_t>(range_of[position])];
    };
    return ChainPartition(cells, std::move(route));
  });
}

Sample TwoPassHierarchySample(const std::vector<WeightedKey>& items,
                              const Hierarchy& h, double s,
                              const TwoPassConfig& cfg,
                              HierarchyPartition partition, Rng* rng) {
  assert(items.size() == h.num_keys());
  if (partition == HierarchyPartition::kAncestors) {
    return RunTwoPass(items, s, cfg, rng, [&](const auto& guide) {
      return AncestorPartition(guide, h);
    });
  }
  // Linearized: order the keys by DFS rank and run the order sampler; node
  // ranges are rank intervals, so Delta < 2 w.h.p. carries over.
  std::vector<WeightedKey> ranked = items;
  for (std::size_t k = 0; k < ranked.size(); ++k) {
    ranked[k].pt.x = h.rank_of_key(static_cast<KeyId>(k));
  }
  return TwoPassOrderSample(ranked, s, cfg, rng);
}

}  // namespace sas
