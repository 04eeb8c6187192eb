// Parameter-space mapping net (paper §III.B.2).
//
// An MLP mapping the frozen extractor's feature vector to a parameter seed:
//   CP variant: c ∈ R^R        (Eq. 6, the generated diagonal core)
//   TR variant: C ∈ R^{R×R}    (Eq. 7, the generated ring core)
// Seeds are produced as identity + tanh(raw): centered on the identity
// diagonal tensor Λ of Fig. 4, bounded so early training cannot blow up the
// update, and exactly the identity at zero activations.
#ifndef METALORA_CORE_MAPPING_NET_H_
#define METALORA_CORE_MAPPING_NET_H_

#include "common/rng.h"
#include "nn/mlp.h"
#include "nn/module.h"

namespace metalora {
namespace core {

using nn::Variable;

enum class SeedShape {
  kVector,  // c  [N, R]
  kMatrix,  // C  [N, R, R]
};

class MappingNet : public nn::Module {
 public:
  MappingNet(int64_t feature_dim, int64_t hidden, int64_t rank,
             SeedShape seed_shape, Rng& rng);

  /// features [N, feature_dim] -> seed ([N, R] or [N, R, R]).
  Variable Forward(const Variable& features) override;

  SeedShape seed_shape() const { return seed_shape_; }
  int64_t rank() const { return rank_; }

 private:
  int64_t rank_;
  SeedShape seed_shape_;
  nn::Mlp* mlp_;
};

/// Aligns a per-sample seed [N, ...] with the rows of `x`. Layers applied
/// token-wise (MLP-Mixer) see x flattened to [N*S, D] with sample-major row
/// order, so the seed is repeated S times per sample; a row count that is
/// not an exact multiple of N is a caller bug ("batch size mismatch").
Variable AlignSeedToRows(const Variable& seed, int64_t x_rows);

}  // namespace core
}  // namespace metalora

#endif  // METALORA_CORE_MAPPING_NET_H_
