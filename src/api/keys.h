// Canonical method keys of the summarizer registry. Every summary built
// through the public API reports one of these strings from Name(), so eval
// tables, bench CSVs, and logs agree on labels. Register custom methods
// under new keys with RegisterSummarizer() (see api/registry.h); the full
// per-key reference (config requirements, mergeability, composed-key
// grammars, error behavior) is docs/keys.md.
//
// Thread-safety: every symbol here is a constexpr string constant; all are
// freely shareable across threads.

#ifndef SAS_API_KEYS_H_
#define SAS_API_KEYS_H_

namespace sas::keys {

// Structure-aware samplers (Sections 3-5 of the paper).

/// In-memory sampler preserving a 1-D total order. Mergeable.
inline constexpr const char kOrder[] = "order";
/// In-memory sampler over a key hierarchy (cfg.structure.hierarchy
/// required; positional config, so not mergeable).
inline constexpr const char kHierarchy[] = "hierarchy";
/// In-memory sampler over disjoint flat ranges (cfg.structure.range_of /
/// num_ranges required; positional config, so not mergeable).
inline constexpr const char kDisjoint[] = "disjoint";
/// In-memory sampler over a 2-D product domain (kd hierarchy). Mergeable.
inline constexpr const char kProduct[] = "product";
/// In-memory sampler over a d-dimensional product domain,
/// cfg.structure.dims in [1, 16]; points enter via AddCoords (any d) or
/// Add (d <= 2), each under the caller's id. Mergeable.
inline constexpr const char kNd[] = "nd";

// Two-pass constructions (Section 5). "aware" is the two-pass product
// sampler — the configuration the paper's evaluation calls Aware.

/// Two-pass product sampler (the paper's Aware). Mergeable.
inline constexpr const char kAware[] = "aware";
/// Two-pass order construction. Mergeable.
inline constexpr const char kOrderTwoPass[] = "order-2p";
/// Two-pass hierarchy construction (cfg.hierarchy_partition selects the
/// Section 5 partition variant). Not mergeable (positional config).
inline constexpr const char kHierarchyTwoPass[] = "hierarchy-2p";
/// Two-pass disjoint-ranges construction. Not mergeable (positional
/// config).
inline constexpr const char kDisjointTwoPass[] = "disjoint-2p";

// Baselines of the Section 6 evaluation.

/// One-pass streaming VarOpt, structure-oblivious. Mergeable; also
/// recyclable via Summarizer::Reset.
inline constexpr const char kObliv[] = "obliv";
/// 2-D Haar wavelet keeping the top-s coefficients (cfg.bits_x/bits_y
/// required). Deterministic; not mergeable.
inline constexpr const char kWavelet[] = "wavelet";
/// 2-D q-digest (cfg.bits_x/bits_y required). Deterministic; not
/// mergeable.
inline constexpr const char kQDigest[] = "qdigest";
/// Dyadic Count-Sketch (cfg.bits_x/bits_y, 3 rows). Not mergeable.
inline constexpr const char kSketch[] = "sketch";
/// Brute force over all retained data — testing/debug reference.
inline constexpr const char kExact[] = "exact";

// Composed-key prefixes. Each names one row of the wrapper grammar table
// (api/composed.h), which holds the wrapper's fields, nesting rules and
// factory; docs/keys.md has the full grammar.

/// "sharded:<N>:<inner-key>": hash-partitions the stream across N worker
/// threads, one <inner-key> builder each, and merges the shard samples
/// (api/sharded.h).
inline constexpr const char kShardedPrefix[] = "sharded:";

/// "windowed:<W>:<B>:<inner-key>": a ring of B time buckets merged into a
/// summary of the last W time units (window/windowed.h).
inline constexpr const char kWindowedPrefix[] = "windowed:";

/// "serve:<inner-key>": publishes the sample to a lock-free QueryService
/// for concurrent readers (serve/servable.h). Outermost only.
inline constexpr const char kServePrefix[] = "serve:";

}  // namespace sas::keys

#endif  // SAS_API_KEYS_H_
