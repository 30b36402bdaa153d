// ServingSnapshot: the published sample. An immutable copy of one finalized
// Sample plus its precomputed total, built once at publish time and shared
// read-only by any number of concurrent readers (src/serve/query_service.h
// owns publication and reclamation; this type is just the data).
//
// There is no per-query-type structure: every estimate is the Sample's own
// Horvitz-Thompson scan over the published entries —
// sample().EstimateSubset / EstimateBox / CountInBox / EstimateQuery — so
// a reader gets exactly the doubles the finalized summary would return.
//
// Thread-safety: every method is const and the object is deeply immutable
// after construction; any number of threads may query one snapshot
// concurrently.

#ifndef SAS_SERVE_SNAPSHOT_H_
#define SAS_SERVE_SNAPSHOT_H_

#include <cstddef>

#include "core/sample.h"
#include "core/types.h"

namespace sas {

/// Empty. Kept only because perfbench/ (the end-to-end benchmark) passes
/// one to EstimateQuery, and perfbench/ changes only together with a
/// benchmark re-baseline; that change drops this type.
struct QueryScratch {};

class ServingSnapshot {
 public:
  /// Deep-copies `sample` and sums its adjusted weights once. O(s).
  explicit ServingSnapshot(const Sample& sample)
      : sample_(sample), total_weight_(sample_.EstimateTotal()) {}

  ServingSnapshot(const ServingSnapshot&) = delete;
  ServingSnapshot& operator=(const ServingSnapshot&) = delete;

  const Sample& sample() const { return sample_; }
  std::size_t size() const { return sample_.size(); }
  double tau() const { return sample_.tau(); }

  /// Total adjusted weight, precomputed at build: sample().EstimateTotal().
  Weight TotalWeight() const { return total_weight_; }

  /// sample().EstimateQuery(q). The unused QueryScratch argument is kept
  /// only because perfbench/ calls this overload, and perfbench/ changes
  /// only together with a benchmark re-baseline.
  Weight EstimateQuery(const MultiRangeQuery& q, QueryScratch* /*scratch*/)
      const {
    return sample_.EstimateQuery(q);
  }

 private:
  Sample sample_;
  Weight total_weight_;
};

}  // namespace sas

#endif  // SAS_SERVE_SNAPSHOT_H_
