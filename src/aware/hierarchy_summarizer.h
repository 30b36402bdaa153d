// Structure-aware VarOpt sampling over hierarchies (Section 3, Figure 1).
//
// Pair selection follows the lowest-LCA rule, implemented bottom-up: each
// subtree surrenders at most one open "leftover" key, and an internal node
// chains its children's leftovers. Probability mass therefore never crosses
// a node boundary while the node has two or more open keys, which yields
// the optimal maximum range discrepancy Delta < 1 for every node range.

#ifndef SAS_AWARE_HIERARCHY_SUMMARIZER_H_
#define SAS_AWARE_HIERARCHY_SUMMARIZER_H_

#include <vector>

#include "aware/summarize_scratch.h"
#include "core/random.h"
#include "core/types.h"
#include "structure/hierarchy.h"

namespace sas {

/// Low-level: aggregates open entries of *probs (indexed by key id, one per
/// hierarchy leaf) following the lowest-LCA rule: a settle (core/settle.h)
/// in which each leaf owns its key. On return every entry is set. Entries
/// already set (0 or 1) are untouched. The per-node carries come from
/// `scratch` (allocation-free when warm).
void HierarchyAggregate(std::vector<double>* probs, const Hierarchy& h,
                        Rng* rng, SummarizeScratch* scratch);

/// Draws a structure-aware VarOpt sample of (expected) size s. items[k]
/// must be the key at hierarchy leaf leaf_of_key(k); probabilities are IPPS
/// for the exact offline threshold. All working memory comes from
/// `scratch` (see aware/summarize_scratch.h for the reuse contract).
void HierarchySummarizeInto(const std::vector<WeightedKey>& items,
                            const Hierarchy& h, double s, Rng* rng,
                            SummarizeScratch* scratch, SummarizeOutput* out);

}  // namespace sas

#endif  // SAS_AWARE_HIERARCHY_SUMMARIZER_H_
