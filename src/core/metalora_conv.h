// MetaLoRA, TR format, for convolutional layers (paper §III.D): the first
// ring core is a convolution to R·R bond channels; the generated core
// C[r2,r0] and the stored core B[r1,o,r2] combine into a per-sample 1×1
// recovery convolution.
//
// The CP format is core::TnAdapter's conv lowering (core/tn_adapter.h); see
// metalora_linear.h for why TR stays a separate class.
#ifndef METALORA_CORE_METALORA_CONV_H_
#define METALORA_CORE_METALORA_CONV_H_

#include <memory>

#include "core/adapter_config.h"
#include "core/conditioning_cache.h"
#include "core/mapping_net.h"
#include "nn/conv2d.h"

namespace metalora {
namespace core {

class MetaLoraTrConv : public Adapter {
 public:
  MetaLoraTrConv(std::unique_ptr<nn::Conv2d> base,
                 const AdapterOptions& options);

  Variable Forward(const Variable& x) override;
  int64_t AdapterParamCount() const override;

  MappingNet* mapping_net() { return mapping_; }

  /// Seed + recovery-weight cache consulted by no-grad forwards.
  ConditioningCache* conditioning_cache() override { return &cache_; }

 private:
  nn::Conv2d* base_;
  MappingNet* mapping_;
  Variable core_a_;  // conv weight [R*R, I, K, K]: channel q = r0*R + r1
  Variable core_b_;  // [R(r1), O, R(r2)]
  float scaling_;
  ConditioningCache cache_;
  uint64_t cache_salt_ = NextAdapterCacheSalt();
};

}  // namespace core
}  // namespace metalora

#endif  // METALORA_CORE_METALORA_CONV_H_
