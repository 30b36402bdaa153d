#include "data/techticket_gen.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "core/random.h"
#include "data/zipf.h"

namespace sas {

namespace {

/// Spreads `n` leaf coordinates over [0, 2^bits) preserving DFS order,
/// with deterministic jitter so coordinates are not perfectly regular.
std::vector<Coord> SpreadCoords(std::size_t n, int bits, Rng* rng) {
  const Coord domain = Coord{1} << bits;
  const Coord stride = domain / n;
  assert(stride >= 1);
  std::vector<Coord> out(n);
  for (std::size_t r = 0; r < n; ++r) {
    const Coord jitter = stride > 1 ? rng->NextBounded(stride) : 0;
    out[r] = r * stride + jitter;
  }
  return out;
}

}  // namespace

Dataset2D GenerateTechTicket(const TechTicketConfig& cfg) {
  Rng rng(cfg.seed);
  Dataset2D ds;
  ds.name = "techticket";

  Rng rx = rng.Split();
  Rng ry = rng.Split();
  ds.hx = std::make_unique<Hierarchy>(
      Hierarchy::Random(cfg.num_codes, cfg.max_branching, &rx));
  ds.hy = std::make_unique<Hierarchy>(
      Hierarchy::Random(cfg.num_locations, cfg.max_branching, &ry));
  const std::vector<Coord> code_coords =
      SpreadCoords(cfg.num_codes, cfg.bits, &rng);
  const std::vector<Coord> loc_coords =
      SpreadCoords(cfg.num_locations, cfg.bits, &rng);
  ds.hx->SetLeafCoords(code_coords);
  ds.hy->SetLeafCoords(loc_coords);

  // Observed (code, location) combinations with Zipf popularity on both
  // attributes; the weight of a pair is its (skewed) ticket count.
  const ZipfDistribution zcode(cfg.num_codes, cfg.zipf_theta);
  const ZipfDistribution zloc(cfg.num_locations, cfg.zipf_theta);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(cfg.num_pairs * 2);
  ds.items.reserve(cfg.num_pairs);
  KeyId next_id = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = cfg.num_pairs * 400 + 1000;
  while (ds.items.size() < cfg.num_pairs && attempts < max_attempts) {
    ++attempts;
    const std::size_t ci = zcode.Sample(&rng);
    const std::size_t li = zloc.Sample(&rng);
    const std::uint64_t code = (static_cast<std::uint64_t>(ci) << 32) | li;
    if (!seen.insert(code).second) continue;
    WeightedKey k;
    k.id = next_id++;
    k.pt = {code_coords[ci], loc_coords[li]};
    // Heavy head: popular combinations also have large ticket counts, so a
    // sizable set of keys is forced into every IPPS sample (Section 6.4).
    const double popularity =
        1000.0 / std::sqrt(static_cast<double>((ci + 1) * (li + 1)));
    k.weight = 1.0 + popularity + rng.NextPareto(1.1);
    ds.items.push_back(k);
  }

  ds.domain.x = {cfg.bits};
  ds.domain.y = {cfg.bits};
  return ds;
}

}  // namespace sas
