#include "data/network_gen.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "data/zipf.h"

namespace sas {

namespace {

/// Recursively places `count` distinct addresses into the block
/// [base, base + 2^b), concentrating mass in few subtrees: with high
/// probability the whole count collapses into one child block, otherwise
/// it splits with a skewed fraction.
void PlaceAddresses(std::size_t count, Coord base, int b, Rng* rng,
                    std::vector<Coord>* out) {
  if (count == 0) return;
  if (b == 0) {
    assert(count == 1);
    out->push_back(base);
    return;
  }
  const Coord half = Coord{1} << (b - 1);
  const std::size_t cap =
      b - 1 >= 63 ? ~std::size_t{0} : static_cast<std::size_t>(half);
  if (count == 1) {
    // Single address: descend into a uniformly random child.
    const Coord child = rng->NextBounded(2);
    PlaceAddresses(1, base + child * half, b - 1, rng, out);
    return;
  }
  const std::size_t min_left = count > cap ? count - cap : 0;
  const std::size_t max_left = std::min(count, cap);
  std::size_t left;
  if (min_left == 0 && rng->NextBernoulli(0.55)) {
    // Collapse: the whole cluster goes to one side (this is what creates
    // prefix locality). min_left == 0 implies count <= cap, so it fits.
    left = rng->NextBounded(2) ? count : 0;
  } else {
    // Skewed split.
    const double f = std::pow(rng->NextDouble(), 2.0);
    left = min_left +
           static_cast<std::size_t>(f * static_cast<double>(max_left - min_left));
    left = std::clamp(left, min_left, max_left);
  }
  PlaceAddresses(left, base, b - 1, rng, out);
  PlaceAddresses(count - left, base + half, b - 1, rng, out);
}

}  // namespace

std::vector<Coord> GenerateClusteredAddresses(std::size_t count, int bits,
                                              Rng* rng) {
  assert(bits >= 1 && bits < 63);
  assert(count <= (std::size_t{1} << std::min(bits, 62)));
  std::vector<Coord> out;
  out.reserve(count);
  PlaceAddresses(count, 0, bits, rng, &out);
  // Distinctness holds by construction (each unit block holds one address).
  return out;
}

Dataset2D GenerateNetwork(const NetworkConfig& cfg) {
  Rng rng(cfg.seed);
  Dataset2D ds;
  ds.name = "network";

  const std::vector<Coord> sources =
      GenerateClusteredAddresses(cfg.num_sources, cfg.bits, &rng);
  const std::vector<Coord> dests =
      GenerateClusteredAddresses(cfg.num_dests, cfg.bits, &rng);

  // Distinct (source, dest) pairs with Zipf endpoint popularity.
  const ZipfDistribution zsrc(sources.size(), cfg.zipf_theta);
  const ZipfDistribution zdst(dests.size(), cfg.zipf_theta);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(cfg.num_pairs * 2);
  ds.items.reserve(cfg.num_pairs);
  KeyId next_id = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = cfg.num_pairs * 200 + 1000;
  while (ds.items.size() < cfg.num_pairs && attempts < max_attempts) {
    ++attempts;
    const std::size_t si = zsrc.Sample(&rng);
    const std::size_t di = zdst.Sample(&rng);
    const std::uint64_t code =
        (static_cast<std::uint64_t>(si) << 32) | di;
    if (!seen.insert(code).second) continue;
    WeightedKey k;
    k.id = next_id++;
    k.pt = {sources[si], dests[di]};
    k.weight = rng.NextPareto(cfg.pareto_alpha);
    ds.items.push_back(k);
  }

  // Per-axis IP-prefix hierarchies over the coordinates actually present.
  std::vector<Coord> xs, ys;
  {
    std::unordered_set<Coord> sx, sy;
    for (const auto& it : ds.items) {
      sx.insert(it.pt.x);
      sy.insert(it.pt.y);
    }
    xs.assign(sx.begin(), sx.end());
    ys.assign(sy.begin(), sy.end());
    std::sort(xs.begin(), xs.end());
    std::sort(ys.begin(), ys.end());
  }
  ds.hx = std::make_unique<Hierarchy>(
      Hierarchy::CompressedBinaryTrie(xs, cfg.bits));
  ds.hy = std::make_unique<Hierarchy>(
      Hierarchy::CompressedBinaryTrie(ys, cfg.bits));
  ds.domain.x = {cfg.bits};
  ds.domain.y = {cfg.bits};
  return ds;
}

}  // namespace sas
