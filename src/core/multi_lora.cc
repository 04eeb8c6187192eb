#include "core/multi_lora.h"

#include <algorithm>

#include "autograd/ops.h"
#include "tensor/random_init.h"

namespace metalora {
namespace core {

namespace {

// Binary [N] mask selecting the samples of task `t`. Constant (no grad).
autograd::Variable TaskMask(const std::vector<int64_t>& task_ids, int64_t n,
                            int t, int64_t* count) {
  ML_CHECK_EQ(static_cast<int64_t>(task_ids.size()), n)
      << "oracle-routed Multi-LoRA needs SetTaskIds with the batch's task ids";
  Tensor mask{Shape{n}};
  int64_t c = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (task_ids[static_cast<size_t>(i)] == t) {
      mask.flat(i) = 1.0f;
      ++c;
    }
  }
  *count = c;
  return autograd::Variable(std::move(mask), /*requires_grad=*/false);
}

}  // namespace

MultiLoraLinear::MultiLoraLinear(std::unique_ptr<nn::Linear> base,
                                 const AdapterOptions& options)
    : Adapter("MultiLoraLinear", options) {
  ML_CHECK(base != nullptr);
  ML_CHECK_GE(options.num_tasks, 1);
  const int64_t in = base->in_features();
  const int64_t out = base->out_features();
  const int64_t branch_rank =
      options.multi_lora_split_rank
          ? std::max<int64_t>(1, options.rank / options.num_tasks)
          : options.rank;
  branch_rank_ = branch_rank;
  scaling_ = options.alpha / static_cast<float>(options.rank);
  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options.seed);
  for (int t = 0; t < options.num_tasks; ++t) {
    Tensor a{Shape{branch_rank, in}};
    KaimingNormal(a, rng, in);
    lora_a_.push_back(
        RegisterParameter("lora_a" + std::to_string(t), std::move(a)));
    lora_b_.push_back(RegisterParameter(
        "lora_b" + std::to_string(t), Tensor::Zeros(Shape{out, branch_rank})));
    if (options.multi_lora_mode == MultiLoraMode::kSum) {
      branch_scale_.push_back(RegisterParameter(
          "scale" + std::to_string(t), Tensor::Ones(Shape{1})));
    }
  }
}

Variable MultiLoraLinear::Forward(const Variable& x) {
  const int64_t n = x.dim(0);
  const std::vector<int64_t>& task_ids = bound_task_ids();
  const bool oracle =
      options_.multi_lora_mode == MultiLoraMode::kOracleRouting;
  Variable y = base_->Forward(x);
  for (int t = 0; t < options_.num_tasks; ++t) {
    Variable mask;
    if (oracle) {
      int64_t count = 0;
      mask = TaskMask(task_ids, n, t, &count);
      if (count == 0) continue;
    }
    Variable h =
        autograd::Linear(x, lora_a_[static_cast<size_t>(t)], Variable());
    Variable d =
        autograd::Linear(h, lora_b_[static_cast<size_t>(t)], Variable());
    if (mask.defined()) {
      d = autograd::ScaleRows(d, mask);
    } else {
      d = autograd::MulScalarVar(d, branch_scale_[static_cast<size_t>(t)]);
    }
    y = autograd::Add(y, autograd::Scale(d, scaling_));
  }
  return y;
}

int64_t MultiLoraLinear::AdapterParamCount() const {
  int64_t total = 0;
  for (const auto& a : lora_a_) total += a.numel();
  for (const auto& b : lora_b_) total += b.numel();
  for (const auto& s : branch_scale_) total += s.numel();
  return total;
}

MultiLoraConv::MultiLoraConv(std::unique_ptr<nn::Conv2d> base,
                             const AdapterOptions& options)
    : Adapter("MultiLoraConv", options) {
  ML_CHECK(base != nullptr);
  ML_CHECK_GE(options.num_tasks, 1);
  const int64_t in = base->in_channels();
  const int64_t out = base->out_channels();
  const int64_t k = base->geom().kernel_h;
  const int64_t branch_rank =
      options.multi_lora_split_rank
          ? std::max<int64_t>(1, options.rank / options.num_tasks)
          : options.rank;
  branch_rank_ = branch_rank;
  scaling_ = options.alpha / static_cast<float>(options.rank);
  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options.seed);
  for (int t = 0; t < options.num_tasks; ++t) {
    Tensor a{Shape{branch_rank, in, k, k}};
    KaimingNormal(a, rng, in * k * k);
    lora_a_.push_back(
        RegisterParameter("lora_a" + std::to_string(t), std::move(a)));
    lora_b_.push_back(RegisterParameter(
        "lora_b" + std::to_string(t), Tensor::Zeros(Shape{out, branch_rank})));
    if (options.multi_lora_mode == MultiLoraMode::kSum) {
      branch_scale_.push_back(RegisterParameter(
          "scale" + std::to_string(t), Tensor::Ones(Shape{1})));
    }
  }
}

Variable MultiLoraConv::Forward(const Variable& x) {
  const int64_t n = x.dim(0);
  const int64_t out = base_->out_channels();
  const std::vector<int64_t>& task_ids = bound_task_ids();
  const bool oracle =
      options_.multi_lora_mode == MultiLoraMode::kOracleRouting;
  ConvGeom pointwise;
  pointwise.kernel_h = 1;
  pointwise.kernel_w = 1;
  Variable y = base_->Forward(x);
  for (int t = 0; t < options_.num_tasks; ++t) {
    Variable mask;
    if (oracle) {
      int64_t count = 0;
      mask = TaskMask(task_ids, n, t, &count);
      if (count == 0) continue;
    }
    Variable h = autograd::Conv2d(x, lora_a_[static_cast<size_t>(t)],
                                  Variable(), base_->geom());
    Variable b4 = autograd::Reshape(lora_b_[static_cast<size_t>(t)],
                                    Shape{out, branch_rank_, 1, 1});
    Variable d = autograd::Conv2d(h, b4, Variable(), pointwise);
    if (mask.defined()) {
      d = autograd::ScaleRows(d, mask);
    } else {
      d = autograd::MulScalarVar(d, branch_scale_[static_cast<size_t>(t)]);
    }
    y = autograd::Add(y, autograd::Scale(d, scaling_));
  }
  return y;
}

int64_t MultiLoraConv::AdapterParamCount() const {
  int64_t total = 0;
  for (const auto& a : lora_a_) total += a.numel();
  for (const auto& b : lora_b_) total += b.numel();
  for (const auto& s : branch_scale_) total += s.numel();
  return total;
}

}  // namespace core
}  // namespace metalora
