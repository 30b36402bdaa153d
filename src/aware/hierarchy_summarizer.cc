#include "aware/hierarchy_summarizer.h"

#include <cassert>
#include <span>

#include "core/settle.h"

namespace sas {
namespace {

/// Settle view of a hierarchy: a leaf owns its key, an internal node only
/// chains its children's carries (builders number parents first).
struct HierarchyView {
  const Hierarchy& h;
  mutable std::size_t key = 0;  // Own's one entry, read before the next Own

  std::size_t num_nodes() const {
    return static_cast<std::size_t>(h.num_nodes());
  }
  std::span<const std::size_t> Own(std::size_t v) const {
    if (!h.is_leaf(static_cast<int>(v))) return {};
    key = h.key_of_leaf(static_cast<int>(v));
    return {&key, 1};
  }
  template <class F>
  void ForEachChild(std::size_t v, F f) const {
    for (int c : h.children(static_cast<int>(v))) {
      f(static_cast<std::size_t>(c));
    }
  }
};

}  // namespace

void HierarchyAggregate(std::vector<double>* probs, const Hierarchy& h,
                        Rng* rng, SummarizeScratch* scratch) {
  assert(probs->size() == h.num_keys());
  Settle(probs->data(), HierarchyView{h}, rng, &scratch->settle);
}

void HierarchySummarizeInto(const std::vector<WeightedKey>& items,
                            const Hierarchy& h, double s, Rng* rng,
                            SummarizeScratch* scratch, SummarizeOutput* out) {
  assert(items.size() == h.num_keys());
  SummarizeWith(items, s, scratch, out, [&](std::vector<double>* work) {
    HierarchyAggregate(work, h, rng, scratch);
  });
}

}  // namespace sas
