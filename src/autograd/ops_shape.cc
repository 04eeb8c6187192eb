#include <algorithm>
#include <utility>
#include <vector>

#include "autograd/op.h"
#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace autograd {

namespace {

class ReshapeOp final : public Op {
 public:
  explicit ReshapeOp(Shape in_shape)
      : Op("Reshape"), in_shape_(std::move(in_shape)) {}

  std::vector<Tensor> Backward(RuntimeContext&, const Tensor& g) override {
    return {g.Reshape(in_shape_)};
  }

 private:
  Shape in_shape_;
};

class PermuteOp final : public Op {
 public:
  explicit PermuteOp(std::vector<int> inv_perm)
      : Op("Permute"), inv_perm_(std::move(inv_perm)) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    std::vector<int64_t> in_dims(inv_perm_.size());
    for (size_t i = 0; i < inv_perm_.size(); ++i) {
      in_dims[i] = g.dim(inv_perm_[i]);
    }
    Tensor ga = ctx.AllocBackwardUninit(Shape(in_dims));
    metalora::PermuteInto(g, inv_perm_, &ga);
    return {ga};
  }

 private:
  std::vector<int> inv_perm_;
};

class ConcatRowsOp final : public Op {
 public:
  ConcatRowsOp(std::vector<int64_t> row_counts, std::vector<Shape> shapes,
               int64_t row_size)
      : Op("ConcatRows"),
        row_counts_(std::move(row_counts)),
        shapes_(std::move(shapes)),
        row_size_(row_size) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    std::vector<Tensor> grads;
    const float* pg = g.data();
    for (size_t i = 0; i < row_counts_.size(); ++i) {
      Tensor gi = ctx.AllocBackwardUninit(shapes_[i]);
      const int64_t count = row_counts_[i] * row_size_;
      std::copy(pg, pg + count, gi.data());
      pg += count;
      grads.push_back(std::move(gi));
    }
    return grads;
  }

 private:
  std::vector<int64_t> row_counts_;
  std::vector<Shape> shapes_;
  int64_t row_size_;
};

}  // namespace

Variable Reshape(const Variable& a, Shape shape) {
  // The result aliases the input buffer: no allocation on any path.
  Tensor out = a.value().Reshape(shape);
  return MakeOpResult<ReshapeOp>(std::move(out), {a}, a.shape());
}

Variable Flatten2D(const Variable& a) {
  ML_CHECK_GE(a.rank(), 1);
  const int64_t n = a.dim(0);
  const int64_t rest = a.numel() / std::max<int64_t>(n, 1);
  return Reshape(a, Shape{n, rest});
}

Variable Permute(const Variable& a, const std::vector<int>& perm) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "Permute");
  Tensor out = metalora::Permute(a.value(), perm);
  prof.set_output(out);
  // Inverse permutation for the backward pass.
  std::vector<int> inv(perm.size());
  for (size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<size_t>(perm[i])] = static_cast<int>(i);
  return MakeOpResult<PermuteOp>(std::move(out), {a}, std::move(inv));
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  ML_CHECK(!parts.empty());
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "ConcatRows");
  std::vector<Tensor> values;
  values.reserve(parts.size());
  std::vector<int64_t> row_counts;
  for (const auto& p : parts) {
    values.push_back(p.value());
    row_counts.push_back(p.dim(0));
  }
  Tensor out = metalora::ConcatRows(values);
  prof.set_output(out);
  const int64_t row_size = out.numel() / std::max<int64_t>(out.dim(0), 1);
  std::vector<Shape> shapes;
  for (const auto& p : parts) shapes.push_back(p.shape());
  return MakeOpResult<ConcatRowsOp>(std::move(out), parts,
                                    std::move(row_counts), std::move(shapes),
                                    row_size);
}

}  // namespace autograd
}  // namespace metalora
