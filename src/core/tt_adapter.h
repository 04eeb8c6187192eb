// Tensor-train (TT) factorized adapters.
//
// Linear (TT-matrix): the input and output dims are split I = i1·i2 and
// O = o1·o2 (tn::TtSplitDim picks the largest divisor ≤ √d), and the LoRA
// pair is replaced by a 4-core train with one uniform bond rank R:
//   A_down[I, R]  = G1[i1, R] ·_R G2[R, i2, R]     (contracted each forward)
//   B_up  [R, O]  = G3[R, o1, R] ·_R G4[R, o2]
//   y = base(x) + (alpha/R) · (x · A_down) · B_up
// The contraction chains are pure parameter matmul+reshape in the layout
// i = i1·i2-major / o = o1·o2-major, so no activation permutes are needed.
// G4 is zero-initialized (pre-trained start point); the G1/G2 stds multiply
// out to Kaiming over I.
//
// Conv: the Conv-LoRA down kernel [R, I, K, K] is TT-factorized into a
// channel core Gc[R, I, R] and spatial core Gs[R, K²] (materialized per
// forward), followed by the zero-init 1×1 output core Go[O, R].
//
// Meta variants (kMetaTt): a per-layer MappingNet turns the conditioning
// features into a per-sample seed on the middle bond — the R channels
// between A_down and B_up — served through the ConditioningCache.
#ifndef METALORA_CORE_TT_ADAPTER_H_
#define METALORA_CORE_TT_ADAPTER_H_

#include <memory>

#include "core/adapter_config.h"
#include "core/conditioning_cache.h"
#include "core/mapping_net.h"
#include "nn/conv2d.h"
#include "nn/linear.h"

namespace metalora {
namespace core {

class TtLinear : public Adapter {
 public:
  TtLinear(std::unique_ptr<nn::Linear> base, const AdapterOptions& options);

  Variable Forward(const Variable& x) override;

  int64_t AdapterParamCount() const override;

  /// Materialized ΔW = (alpha/R)·(A_down·B_up)ᵀ, shape [O, I].
  Tensor DeltaWeight() const;
  /// Meta variant: ΔW with the bond seed c [R] applied.
  Tensor DeltaWeightFor(const Tensor& seed_c) const;

  ConditioningCache* conditioning_cache() override {
    return meta_ ? &cache_ : nullptr;
  }
  MappingNet* mapping_net() { return mapping_; }

 private:
  Tensor DeltaWeightImpl(const Tensor* seed_c) const;

  nn::Linear* base_;
  MappingNet* mapping_ = nullptr;  // kMetaTt only
  Variable tt_in_a_;   // [i1, R]
  Variable tt_in_b_;   // [R, i2, R]
  Variable tt_out_a_;  // [R, o1, R]
  Variable tt_out_b_;  // [R, o2], zero-init
  int64_t i1_, i2_, o1_, o2_;
  float scaling_;
  bool meta_;
  ConditioningCache cache_;
  uint64_t cache_salt_ = NextAdapterCacheSalt();
};

class TtConv : public Adapter {
 public:
  TtConv(std::unique_ptr<nn::Conv2d> base, const AdapterOptions& options);

  Variable Forward(const Variable& x) override;

  int64_t AdapterParamCount() const override;

  /// Materialized ΔW [O, I, K, K].
  Tensor DeltaWeight() const;
  Tensor DeltaWeightFor(const Tensor& seed_c) const;

  ConditioningCache* conditioning_cache() override {
    return meta_ ? &cache_ : nullptr;
  }
  MappingNet* mapping_net() { return mapping_; }

 private:
  Tensor DeltaWeightImpl(const Tensor* seed_c) const;

  nn::Conv2d* base_;
  MappingNet* mapping_ = nullptr;
  Variable tt_channel_;  // [R, I, R]
  Variable tt_spatial_;  // [R, K·K]
  Variable tt_out_;      // [O, R], zero-init
  float scaling_;
  bool meta_;
  ConditioningCache cache_;
  uint64_t cache_salt_ = NextAdapterCacheSalt();
};

}  // namespace core
}  // namespace metalora

#endif  // METALORA_CORE_TT_ADAPTER_H_
