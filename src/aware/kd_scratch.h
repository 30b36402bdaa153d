// Build workspace for the kd construction (KdHierarchy, any d).
//
// One monotonic arena backs the build's working memory, for n points in d
// dimensions: the d per-axis item orders (4 bytes each per point), the
// stable-partition buffer (4), the median-scan arrays (prefix masses 8,
// coordinates 8), a second coordinate array (8) that ping-pongs with the
// first during the radix presort, the radix histogram (at most 2^11
// counters), and the task stack. Repeated builds against a warm scratch
// perform zero heap allocations beyond the returned tree itself. See
// core/arena.h for the ownership rules; builds Reset() the arena on entry,
// so one scratch serves at most one build at a time.

#ifndef SAS_AWARE_KD_SCRATCH_H_
#define SAS_AWARE_KD_SCRATCH_H_

#include "core/arena.h"

namespace sas {

struct KdBuildScratch {
  MonotonicArena arena;
};

}  // namespace sas

#endif  // SAS_AWARE_KD_SCRATCH_H_
