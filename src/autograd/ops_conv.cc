#include <span>
#include <utility>
#include <vector>

#include "autograd/op.h"
#include "autograd/ops.h"
#include "tensor/conv_ops.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace autograd {

namespace {

// A zeroed backward buffer of `shape` when `wanted`, else undefined.
Tensor ZeroedIf(RuntimeContext& ctx, bool wanted, const Shape& shape) {
  return wanted ? ctx.AllocBackward(shape) : Tensor();
}

// The kernels' "skip this gradient" form of an undefined tensor.
Tensor* OrNull(Tensor& t) { return t.defined() ? &t : nullptr; }

// A [O, I] channel-mixing matrix as the weight [O, I, 1, 1] of a 1×1 conv.
Tensor PointwiseWeight(const Tensor& m) {
  return m.Reshape(Shape{m.dim(0), m.dim(1), 1, 1});
}

class Conv2dOp final : public Op {
 public:
  Conv2dOp(Tensor x, Tensor w, const ConvGeom& geom, bool has_bias)
      : Op("Conv2d"),
        x_(Save(std::move(x))),
        w_(Save(std::move(w))),
        geom_(geom),
        has_bias_(has_bias) {}

  // Only the gradients the graph consumes are computed: an input that
  // does not require grad gets an undefined tensor, which the engine
  // skips, and its GEMMs never run (the frozen base conv under every
  // adapter needs no weight gradient).
  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    const std::vector<Variable>& in = inputs();
    Tensor gx = ZeroedIf(ctx, in[0].requires_grad(), x_.get().shape());
    Tensor gw = ZeroedIf(ctx, in[1].requires_grad(), w_.get().shape());
    Tensor gb = ZeroedIf(ctx, has_bias_ && in[2].requires_grad(),
                         Shape{w_.get().dim(0)});
    Conv2dBackward(x_.get(), w_.get(), g, geom_, OrNull(gx), OrNull(gw),
                   OrNull(gb));
    std::vector<Tensor> grads = {gx, gw};
    if (has_bias_) grads.push_back(gb);
    return grads;
  }

 private:
  SavedTensor x_, w_;
  ConvGeom geom_;
  bool has_bias_;
};

// The tensors an adapted conv's backward reads: the base input and
// weights, the chain's factors (seed, core undefined when absent) and its
// forward intermediates h0 = conv(x, D), h1 = h0·diag(c), h2 = G·h1 (h1 is
// h0 without a seed, h2 is h1 without a core).
struct AdaptedConvTensors {
  Tensor x, w, down, seed, core, up;
  Tensor h0, h1, h2;
};

// y = conv(x, W) + scale · U_n · [G] · [diag(c)] · conv(x, D) as one node.
// Backward runs the tail's kernels in reverse on plain tensors, then one
// stacked conv backward over [W; D]. Only the gradients the graph consumes
// are computed. Inputs: x, weight, bias, down, seed, core, up.
class AdaptedConv2dOp final : public Op {
 public:
  AdaptedConv2dOp(const AdaptedConvTensors& t, float scale,
                  const ConvGeom& geom)
      : Op("AdaptedConv2d"),
        x_(Save(t.x)),
        w_(Save(t.w)),
        down_(Save(t.down)),
        up_(Save(t.up)),
        h2_(Save(t.h2)),
        scale_(scale),
        geom_(geom) {
    if (t.seed.defined()) {
      seed_ = Save(t.seed);
      h0_ = Save(t.h0);
    }
    if (t.core.defined()) {
      core_ = Save(t.core);
      h1_ = Save(t.h1);
    }
  }

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    enum { kX, kW, kBias, kDown, kSeed, kCore, kUp };
    const std::vector<Variable>& in = inputs();
    auto wants = [&](int i) { return in[i].requires_grad(); };
    // Which gradients of the chain's activations are needed: h0's feeds x
    // and D, h1's also c, h2's also G (h1's is h0's without a seed, h2's is
    // h1's without a core).
    const bool need_gh0 = wants(kX) || wants(kDown);
    const bool need_gh1 = need_gh0 || wants(kSeed);
    const bool need_gh2 = need_gh1 || wants(kCore);
    const ConvGeom pw = ConvGeom::Pointwise();

    // d = U·h2, or the per-sample M_n·h2; y = base + scale·d.
    Tensor gh2 = ZeroedIf(ctx, need_gh2, h2_.get().shape());
    Tensor gup = ZeroedIf(ctx, wants(kUp), up_.get().shape());
    if (gh2.defined() || gup.defined()) {
      Tensor gd = ctx.AllocBackwardUninit(g.shape());
      ScaleInto(g, scale_, &gd);
      if (up_.get().rank() == 3) {
        PerSamplePointwiseConvBackward(h2_.get(), up_.get(), gd, OrNull(gh2),
                                       OrNull(gup));
      } else {
        Tensor gup4 = gup.defined() ? PointwiseWeight(gup) : Tensor();
        Conv2dBackward(h2_.get(), PointwiseWeight(up_.get()), gd, pw,
                       OrNull(gh2), OrNull(gup4), nullptr);
      }
    }
    // h2 = G·h1.
    Tensor gh1 = gh2, gcore;
    if (core_.defined()) {
      gh1 = ZeroedIf(ctx, need_gh1, h1_.get().shape());
      gcore = ZeroedIf(ctx, wants(kCore), core_.get().shape());
      Tensor gcore4 = gcore.defined() ? PointwiseWeight(gcore) : Tensor();
      if (gh1.defined() || gcore.defined()) {
        Conv2dBackward(h1_.get(), PointwiseWeight(core_.get()), gh2, pw,
                       OrNull(gh1), OrNull(gcore4), nullptr);
      }
    }
    // h1 = h0·diag(c).
    Tensor gh0 = gh1, gseed;
    if (seed_.defined()) {
      gh0 = need_gh0 ? ctx.AllocBackwardUninit(h0_.get().shape()) : Tensor();
      gseed = wants(kSeed) ? ctx.AllocBackwardUninit(seed_.get().shape())
                           : Tensor();
      if (gh0.defined() || gseed.defined()) {
        ScaleChannelsBackward(gh1, h0_.get(), seed_.get(), OrNull(gh0),
                              OrNull(gseed));
      }
    }
    // [y; h0] = conv(x, [W; D]): one stacked backward. D's rows join only
    // when h0's gradient exists.
    Tensor gx = ZeroedIf(ctx, wants(kX), x_.get().shape());
    Tensor gw = ZeroedIf(ctx, wants(kW), w_.get().shape());
    Tensor gb = ZeroedIf(ctx, wants(kBias), Shape{w_.get().dim(0)});
    Tensor gdown = ZeroedIf(ctx, wants(kDown), down_.get().shape());
    if (gx.defined() || gw.defined() || gb.defined() || gdown.defined()) {
      const size_t blocks = need_gh0 ? 2 : 1;
      const Tensor* weights[] = {&w_.get(), &down_.get()};
      const Tensor* grad_outputs[] = {&g, &gh0};
      Tensor* grad_weights[] = {OrNull(gw), OrNull(gdown)};
      Conv2dBackward(x_.get(), std::span(weights, blocks),
                     std::span(grad_outputs, blocks), geom_, OrNull(gx),
                     std::span(grad_weights, blocks), OrNull(gb));
    }
    return {gx, gw, gb, gdown, gseed, gcore, gup};
  }

 private:
  SavedTensor x_, w_, down_, up_, h2_;
  SavedTensor seed_, h0_, core_, h1_;  // with a seed / with a core
  float scale_;
  ConvGeom geom_;
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
  Tensor out = ctx.AllocResultUninit(Shape{x.dim(0), weight.dim(0), ho, wo});
  Conv2dForwardInto(x.value(), weight.value(),
                    has_bias ? bias.value() : Tensor(), geom, &out, prec);
  prof.set_output(out);
  std::vector<Variable> inputs =
      has_bias ? std::vector<Variable>{x, weight, bias}
               : std::vector<Variable>{x, weight};
  return MakeOpResult<Conv2dOp>(std::move(out), std::move(inputs), x.value(),
                                weight.value(), geom, has_bias);
}

Variable AdaptedConv2d(const Variable& x, const Variable& weight,
                       const Variable& bias, const Variable& down,
                       const Variable& seed, const Variable& core,
                       const Variable& up, float scale, const ConvGeom& geom) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "AdaptedConv2d");
  const int64_t ho = geom.OutExtent(x.dim(2), geom.kernel_h);
  const int64_t wo = geom.OutExtent(x.dim(3), geom.kernel_w);
  const Shape y_shape{x.dim(0), weight.dim(0), ho, wo};
  const Shape h_shape{x.dim(0), down.dim(0), ho, wo};
  // Every conv GEMM runs at the autocast conv tier, as Conv2d picks it
  // (fp32 whenever gradients are recorded).
  const OpPrecision prec = ctx.PrecisionFor(OpCategory::kConv);
  AdaptedConvTensors t;
  t.x = x.value();
  t.w = weight.value();
  t.down = down.value();
  if (seed.defined()) t.seed = seed.value();
  if (core.defined()) t.core = core.value();
  t.up = up.value();
  Tensor y = ctx.AllocResultUninit(y_shape);
  t.h0 = ctx.AllocResultUninit(h_shape);
  {
    const Tensor* weights[] = {&t.w, &t.down};
    Tensor* outs[] = {&y, &t.h0};
    ctx.RecordGemmDispatch(prec);
    Conv2dForwardInto(t.x, weights, bias.defined() ? bias.value() : Tensor(),
                      geom, outs, prec);
  }
  t.h1 = t.h0;
  if (t.seed.defined()) {
    t.h1 = ctx.AllocResultUninit(h_shape);
    ScaleChannelsInto(t.h0, t.seed, &t.h1);
  }
  t.h2 = t.h1;
  if (t.core.defined()) {
    ctx.RecordGemmDispatch(prec);
    t.h2 = ctx.AllocResultUninit(h_shape);
    Conv2dForwardInto(t.h1, PointwiseWeight(t.core), Tensor(),
                      ConvGeom::Pointwise(), &t.h2, prec);
  }
  Tensor d;
  if (t.up.rank() == 3) {
    // A per-sample U runs at the GEMM tier, as PerSamplePointwiseConv
    // picks it.
    const OpPrecision up_prec =
        ForwardGemmPrecision(ctx, /*int8_capable=*/false);
    ctx.RecordGemmDispatch(up_prec);
    d = ctx.AllocResult(y_shape);
    PerSamplePointwiseConvInto(t.h2, t.up, &d, up_prec);
  } else {
    ctx.RecordGemmDispatch(prec);
    d = ctx.AllocResultUninit(y_shape);
    Conv2dForwardInto(t.h2, PointwiseWeight(t.up), Tensor(),
                      ConvGeom::Pointwise(), &d, prec);
  }
  ScaleInto(d, scale, &d);
  AddInto(y, d, &y);
  prof.set_output(y);
  return MakeOpResult<AdaptedConv2dOp>(
      std::move(y), {x, weight, bias, down, seed, core, up}, t, scale, geom);
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
