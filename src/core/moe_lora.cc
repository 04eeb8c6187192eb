#include "core/moe_lora.h"

#include "autograd/ops.h"
#include "tensor/random_init.h"

namespace metalora {
namespace core {

namespace {

// Differentiable column selection: weights[:, e] as a [N] vector, with
// gradient flowing back into the gate. Implemented as a matmul against a
// constant one-hot column.
Variable GateColumn(const Variable& weights, int expert, int num_experts) {
  Tensor onehot{Shape{num_experts, 1}};
  onehot.flat(expert) = 1.0f;
  Variable col = autograd::Matmul(
      weights, Variable(std::move(onehot), /*requires_grad=*/false));
  return autograd::Reshape(col, Shape{weights.dim(0)});
}

Variable AlignFeatureRows(const Variable& seed, int64_t x_rows) {
  const int64_t n = seed.dim(0);
  ML_CHECK(x_rows % n == 0 && x_rows >= n)
      << "gate features batch size mismatch: x has " << x_rows
      << " rows, features have " << n;
  return autograd::RepeatRowsInterleaved(seed, x_rows / n);
}

}  // namespace

MoeLoraLinear::MoeLoraLinear(std::unique_ptr<nn::Linear> base,
                             const AdapterOptions& options)
    : Adapter("MoeLoraLinear", options) {
  ML_CHECK(base != nullptr);
  ML_CHECK_GE(options.num_tasks, 1);
  ML_CHECK_GT(options.feature_dim, 0)
      << "MoE-LoRA needs options.feature_dim for the gate";
  const int64_t in = base->in_features();
  const int64_t out = base->out_features();
  scaling_ = options.alpha / static_cast<float>(options.rank);
  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options.seed);
  gate_ = RegisterModule("gate",
                         std::make_unique<nn::Linear>(options.feature_dim,
                                                      options.num_tasks,
                                                      /*bias=*/true, rng));
  for (int e = 0; e < options.num_tasks; ++e) {
    Tensor a{Shape{options.rank, in}};
    KaimingNormal(a, rng, in);
    lora_a_.push_back(
        RegisterParameter("lora_a" + std::to_string(e), std::move(a)));
    lora_b_.push_back(RegisterParameter(
        "lora_b" + std::to_string(e), Tensor::Zeros(Shape{out, options.rank})));
  }
}

Variable MoeLoraLinear::GateWeights() {
  const Variable& features = bound_features();
  ML_CHECK(features.defined()) << "MoeLoraLinear: SetFeatures before gating";
  return autograd::SoftmaxLastDim(gate_->Forward(features));
}

Variable MoeLoraLinear::Forward(const Variable& x) {
  Variable y = base_->Forward(x);
  Variable weights = AlignFeatureRows(GateWeights(), x.dim(0));  // [N, E]
  for (int e = 0; e < options_.num_tasks; ++e) {
    Variable h = autograd::Linear(x, lora_a_[static_cast<size_t>(e)], Variable());
    Variable d = autograd::Linear(h, lora_b_[static_cast<size_t>(e)], Variable());
    d = autograd::ScaleRows(d, GateColumn(weights, e, options_.num_tasks));
    y = autograd::Add(y, autograd::Scale(d, scaling_));
  }
  return y;
}

int64_t MoeLoraLinear::AdapterParamCount() const {
  int64_t total = gate_->ParamCount();
  for (const auto& a : lora_a_) total += a.numel();
  for (const auto& b : lora_b_) total += b.numel();
  return total;
}

MoeLoraConv::MoeLoraConv(std::unique_ptr<nn::Conv2d> base,
                         const AdapterOptions& options)
    : Adapter("MoeLoraConv", options) {
  ML_CHECK(base != nullptr);
  ML_CHECK_GE(options.num_tasks, 1);
  ML_CHECK_GT(options.feature_dim, 0)
      << "MoE-LoRA needs options.feature_dim for the gate";
  const int64_t in = base->in_channels();
  const int64_t out = base->out_channels();
  const int64_t k = base->geom().kernel_h;
  scaling_ = options.alpha / static_cast<float>(options.rank);
  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options.seed);
  gate_ = RegisterModule("gate",
                         std::make_unique<nn::Linear>(options.feature_dim,
                                                      options.num_tasks,
                                                      /*bias=*/true, rng));
  for (int e = 0; e < options.num_tasks; ++e) {
    Tensor a{Shape{options.rank, in, k, k}};
    KaimingNormal(a, rng, in * k * k);
    lora_a_.push_back(
        RegisterParameter("lora_a" + std::to_string(e), std::move(a)));
    lora_b_.push_back(RegisterParameter(
        "lora_b" + std::to_string(e), Tensor::Zeros(Shape{out, options.rank})));
  }
}

Variable MoeLoraConv::Forward(const Variable& x) {
  const Variable& features = bound_features();
  ML_CHECK(features.defined()) << "MoeLoraConv: SetFeatures before Forward";
  ML_CHECK_EQ(features.dim(0), x.dim(0));
  Variable y = base_->Forward(x);
  Variable weights = autograd::SoftmaxLastDim(gate_->Forward(features));
  const int64_t out = base_->out_channels();
  for (int e = 0; e < options_.num_tasks; ++e) {
    Variable h = autograd::Conv2d(x, lora_a_[static_cast<size_t>(e)],
                                  Variable(), base_->geom());
    Variable b4 = autograd::Reshape(lora_b_[static_cast<size_t>(e)],
                                    Shape{out, options_.rank, 1, 1});
    Variable d = autograd::Conv2d(h, b4, Variable(), ConvGeom::Pointwise());
    d = autograd::ScaleRows(d, GateColumn(weights, e, options_.num_tasks));
    y = autograd::Add(y, autograd::Scale(d, scaling_));
  }
  return y;
}

int64_t MoeLoraConv::AdapterParamCount() const {
  int64_t total = gate_->ParamCount();
  for (const auto& a : lora_a_) total += a.numel();
  for (const auto& b : lora_b_) total += b.numel();
  return total;
}

}  // namespace core
}  // namespace metalora
