#include "core/lora_linear.h"

#include <cmath>

#include "autograd/ops.h"
#include "tensor/matmul.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace core {

LoraLinear::LoraLinear(std::unique_ptr<nn::Linear> base,
                       const AdapterOptions& options)
    : Adapter("LoraLinear", options) {
  ML_CHECK(base != nullptr);
  ML_CHECK_GT(options.rank, 0);
  const int64_t in = base->in_features();
  const int64_t out = base->out_features();
  scaling_ = options.alpha / static_cast<float>(options.rank);

  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options.seed);
  Tensor a{Shape{options.rank, in}};
  KaimingNormal(a, rng, in);
  lora_a_ = RegisterParameter("lora_a", std::move(a));
  lora_b_ = RegisterParameter("lora_b",
                              Tensor::Zeros(Shape{out, options.rank}));
}

Variable LoraLinear::Forward(const Variable& x) {
  Variable y = base_->Forward(x);
  if (merged_) return y;
  Variable h = autograd::Linear(x, lora_a_, Variable());  // [N, R]
  Variable d = autograd::Linear(h, lora_b_, Variable());  // [N, O]
  return autograd::Add(y, autograd::Scale(d, scaling_));
}

int64_t LoraLinear::AdapterParamCount() const {
  return lora_a_.numel() + lora_b_.numel();
}

Tensor LoraLinear::DeltaWeight() const {
  // [O, R] · [R, I] -> [O, I].
  Tensor delta = Matmul(lora_b_.value(), lora_a_.value());
  ScaleInPlace(delta, scaling_);
  return delta;
}

void LoraLinear::Merge() {
  if (merged_) return;
  AddInPlace(base_->weight().mutable_value(), DeltaWeight());
  merged_ = true;
}

void LoraLinear::Unmerge() {
  if (!merged_) return;
  Tensor delta = DeltaWeight();
  ScaleInPlace(delta, -1.0f);
  AddInPlace(base_->weight().mutable_value(), delta);
  merged_ = false;
}

}  // namespace core
}  // namespace metalora
