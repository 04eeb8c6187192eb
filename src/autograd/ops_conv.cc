#include <utility>
#include <vector>

#include "autograd/op.h"
#include "autograd/ops.h"
#include "tensor/conv_ops.h"

namespace metalora {
namespace autograd {

namespace {

class Conv2dOp final : public Op {
 public:
  Conv2dOp(Tensor x, Tensor w, const ConvGeom& geom, bool has_bias)
      : Op("Conv2d"),
        x_(Save(std::move(x))),
        w_(Save(std::move(w))),
        geom_(geom),
        has_bias_(has_bias) {}

  std::vector<Tensor> Backward(RuntimeContext&, const Tensor& g) override {
    Tensor gx, gw, gb;
    Conv2dBackward(x_.get(), w_.get(), g, geom_, &gx, &gw,
                   has_bias_ ? &gb : nullptr, has_bias_);
    std::vector<Tensor> grads = {gx, gw};
    if (has_bias_) grads.push_back(gb);
    return grads;
  }

 private:
  SavedTensor x_, w_;
  ConvGeom geom_;
  bool has_bias_;
};

class MaxPool2dOp final : public Op {
 public:
  MaxPool2dOp(Shape in_shape, std::vector<int64_t> argmax)
      : Op("MaxPool2d"),
        in_shape_(std::move(in_shape)),
        argmax_(std::move(argmax)) {}

  std::vector<Tensor> Backward(RuntimeContext&, const Tensor& g) override {
    return {MaxPool2dBackward(g, in_shape_, argmax_)};
  }

 private:
  Shape in_shape_;
  std::vector<int64_t> argmax_;
};

class AvgPool2dOp final : public Op {
 public:
  AvgPool2dOp(Shape in_shape, const ConvGeom& geom)
      : Op("AvgPool2d"), in_shape_(std::move(in_shape)), geom_(geom) {}

  std::vector<Tensor> Backward(RuntimeContext&, const Tensor& g) override {
    return {AvgPool2dBackward(g, in_shape_, geom_)};
  }

 private:
  Shape in_shape_;
  ConvGeom geom_;
};

class GlobalAvgPoolOp final : public Op {
 public:
  explicit GlobalAvgPoolOp(Shape in_shape)
      : Op("GlobalAvgPool"), in_shape_(std::move(in_shape)) {}

  std::vector<Tensor> Backward(RuntimeContext&, const Tensor& g) override {
    return {GlobalAvgPoolBackward(g, in_shape_)};
  }

 private:
  Shape in_shape_;
};

}  // namespace

Variable Conv2d(const Variable& x, const Variable& weight,
                const Variable& bias, const ConvGeom& geom) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "Conv2d");
  const bool has_bias = bias.defined();
  const int64_t ho = geom.OutExtent(x.dim(2), geom.kernel_h);
  const int64_t wo = geom.OutExtent(x.dim(3), geom.kernel_w);
  // The im2col GEMM consults the autocast policy's conv category (resolves
  // to fp32 whenever gradients are recorded); backward is always fp32.
  const OpPrecision prec = ctx.PrecisionFor(OpCategory::kConv);
  ctx.RecordGemmDispatch(prec);
  Tensor out = ctx.AllocResult(Shape{x.dim(0), weight.dim(0), ho, wo});
  Conv2dForwardInto(x.value(), weight.value(),
                    has_bias ? bias.value() : Tensor(), geom, &out, prec);
  prof.set_output(out);
  std::vector<Variable> inputs =
      has_bias ? std::vector<Variable>{x, weight, bias}
               : std::vector<Variable>{x, weight};
  return MakeOpResult<Conv2dOp>(std::move(out), std::move(inputs), x.value(),
                                weight.value(), geom, has_bias);
}

Variable MaxPool2d(const Variable& x, const ConvGeom& geom) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "MaxPool2d");
  const int64_t ho = geom.OutExtent(x.dim(2), geom.kernel_h);
  const int64_t wo = geom.OutExtent(x.dim(3), geom.kernel_w);
  Tensor out = ctx.AllocResultUninit(Shape{x.dim(0), x.dim(1), ho, wo});
  std::vector<int64_t> argmax;
  MaxPool2dInto(x.value(), geom, &argmax, &out);
  prof.set_output(out);
  return MakeOpResult<MaxPool2dOp>(std::move(out), {x}, x.shape(),
                                   std::move(argmax));
}

Variable AvgPool2d(const Variable& x, const ConvGeom& geom) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "AvgPool2d");
  const int64_t ho = geom.OutExtent(x.dim(2), geom.kernel_h);
  const int64_t wo = geom.OutExtent(x.dim(3), geom.kernel_w);
  Tensor out = ctx.AllocResultUninit(Shape{x.dim(0), x.dim(1), ho, wo});
  AvgPool2dInto(x.value(), geom, &out);
  prof.set_output(out);
  return MakeOpResult<AvgPool2dOp>(std::move(out), {x}, x.shape(), geom);
}

Variable GlobalAvgPool(const Variable& x) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "GlobalAvgPool");
  Tensor out = ctx.AllocResultUninit(Shape{x.dim(0), x.dim(1)});
  GlobalAvgPoolInto(x.value(), &out);
  prof.set_output(out);
  return MakeOpResult<GlobalAvgPoolOp>(std::move(out), {x}, x.shape());
}

}  // namespace autograd
}  // namespace metalora
