#include "aware/order_summarizer.h"

#include "structure/order.h"

namespace sas {

void OrderSummarizeInto(const std::vector<WeightedKey>& items, double s,
                        Rng* rng, SummarizeScratch* scratch,
                        SummarizeOutput* out) {
  SummarizeWith(items, s, scratch, out, [&](std::vector<double>* work) {
    auto& xs = scratch->xs;
    xs.clear();
    xs.reserve(items.size());
    for (const auto& it : items) xs.push_back(it.pt.x);
    SortedOrderInto(xs, &scratch->order);
    OrderAggregate(work, scratch->order, rng);
  });
}

}  // namespace sas
