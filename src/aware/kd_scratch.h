// Build workspace for the kd construction (KdHierarchy, any d).
//
// One monotonic arena backs the build's working memory, for n points in d
// dimensions: the d per-axis item orders (4 bytes each per point), the
// stable-partition buffer (4, also the presort's index buffer), two
// presort key arrays (8 each) that ping-pong during the radix passes, the
// radix histograms (one of at most 2^11 counters per pass of a 32-bit key,
// so at most 3 * 2^11), and the task stack. The split scan needs no
// arrays: it reads coordinates and masses in place. Repeated builds
// against a warm scratch perform zero heap allocations beyond the returned
// tree itself. See core/arena.h for the ownership rules; builds Reset()
// the arena on entry, so one scratch serves at most one build at a time.

#ifndef SAS_AWARE_KD_SCRATCH_H_
#define SAS_AWARE_KD_SCRATCH_H_

#include "core/arena.h"

namespace sas {

struct KdBuildScratch {
  MonotonicArena arena;
};

}  // namespace sas

#endif  // SAS_AWARE_KD_SCRATCH_H_
