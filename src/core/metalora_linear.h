// MetaLoRA, TR format, for linear layers (paper §III.C, Eq. 7):
// ΔW = Σ_{r0,r1,r2} A[r0,·,r1]·B[r1,·,r2]·C[r2,r0] with the ring core C
// generated per input; applied through batched bond contractions.
//
// The CP format (Eq. 6) is core::TnAdapter (core/tn_adapter.h). TR stays
// its own class: its generated factor is a ring core over two bonds, not a
// rank diagonal, and it is served through a cached per-feature recovery
// tensor (ConditioningCache::DeltaOrCompute) rather than a cached seed.
#ifndef METALORA_CORE_METALORA_LINEAR_H_
#define METALORA_CORE_METALORA_LINEAR_H_

#include <memory>

#include "core/adapter_config.h"
#include "core/conditioning_cache.h"
#include "core/mapping_net.h"
#include "nn/linear.h"

namespace metalora {
namespace core {

class MetaLoraTrLinear : public Adapter {
 public:
  MetaLoraTrLinear(std::unique_ptr<nn::Linear> base,
                   const AdapterOptions& options);

  Variable Forward(const Variable& x) override;

  int64_t AdapterParamCount() const override;

  /// Materializes ΔW for one generated core C [R, R] via tn::TrMatrix
  /// (analysis/tests only).
  Tensor DeltaWeightFor(const Tensor& seed_core) const;

  MappingNet* mapping_net() { return mapping_; }

  /// Seed + recovery-weight cache consulted by no-grad forwards.
  ConditioningCache* conditioning_cache() override { return &cache_; }

 private:
  nn::Linear* base_;
  MappingNet* mapping_;
  Variable core_a_;  // [R, I, R]
  Variable core_b_;  // [R, O, R]
  float scaling_;
  ConditioningCache cache_;
  uint64_t cache_salt_ = NextAdapterCacheSalt();
};

}  // namespace core
}  // namespace metalora

#endif  // METALORA_CORE_METALORA_LINEAR_H_
