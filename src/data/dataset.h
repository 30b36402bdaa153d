// Dataset container for 2-D evaluation workloads: the weighted keys plus
// the per-axis structure (hierarchies with coordinate layouts).

#ifndef SAS_DATA_DATASET_H_
#define SAS_DATA_DATASET_H_

#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "structure/hierarchy.h"
#include "structure/product.h"

namespace sas {

struct Dataset2D {
  std::string name;
  std::vector<WeightedKey> items;
  ProductDomain2D domain;
  // Per-axis hierarchies (owned).
  std::unique_ptr<Hierarchy> hx;
  std::unique_ptr<Hierarchy> hy;

  Weight total_weight() const;

  /// Weight vector in item order (convenience for threshold computations).
  std::vector<Weight> Weights() const;
};

}  // namespace sas

#endif  // SAS_DATA_DATASET_H_
