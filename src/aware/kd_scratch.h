// Build workspace for the kd construction (KdHierarchy, any d).
//
// One monotonic arena backs the build's working memory — per-axis item
// orders, the stable-partition buffer, the median-scan arrays, and the task
// stack — so repeated builds against a warm scratch perform zero heap
// allocations beyond the returned tree itself. See core/arena.h for
// the ownership rules; builds Reset() the arena on entry, so one scratch
// serves at most one build at a time.

#ifndef SAS_AWARE_KD_SCRATCH_H_
#define SAS_AWARE_KD_SCRATCH_H_

#include "core/arena.h"

namespace sas {

struct KdBuildScratch {
  MonotonicArena arena;
};

}  // namespace sas

#endif  // SAS_AWARE_KD_SCRATCH_H_
