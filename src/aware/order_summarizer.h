// OSSUMMARIZE (Algorithm 5): structure-aware VarOpt sampling for order
// structures.
//
// Keys are scanned in sorted order keeping a single active (open) key; each
// new open key is pair-aggregated with the active one. The resulting VarOpt
// sample has prefix discrepancy < 1 and interval discrepancy < 2, which
// Theorem 1 shows is optimal for VarOpt samples on order structures. The
// scan itself is OrderAggregate (core/settle.h).

#ifndef SAS_AWARE_ORDER_SUMMARIZER_H_
#define SAS_AWARE_ORDER_SUMMARIZER_H_

#include <vector>

#include "aware/summarize_scratch.h"
#include "core/random.h"
#include "core/settle.h"
#include "core/types.h"

namespace sas {

/// Draws a structure-aware VarOpt sample of (expected) size s where the
/// order is the x-coordinate of the items, with all working memory from
/// `scratch` and results into the caller-owned `out` — warm rebuild cycles
/// allocate nothing (see aware/summarize_scratch.h).
void OrderSummarizeInto(const std::vector<WeightedKey>& items, double s,
                        Rng* rng, SummarizeScratch* scratch,
                        SummarizeOutput* out);

}  // namespace sas

#endif  // SAS_AWARE_ORDER_SUMMARIZER_H_
