#include <utility>
#include <vector>

#include "autograd/op.h"
#include "autograd/ops.h"
#include "tensor/conv_ops.h"
#include "tensor/gemm.h"
#include "tensor/lowp.h"
#include "tensor/matmul.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace autograd {

OpPrecision ForwardGemmPrecision(RuntimeContext& ctx, bool int8_capable) {
  OpPrecision p = ctx.PrecisionFor(OpCategory::kGemm);
  if (p == OpPrecision::kInt8 && !int8_capable) p = OpPrecision::kBf16;
  return p;
}

namespace {

class MatmulOp final : public Op {
 public:
  MatmulOp(Tensor a, Tensor b)
      : Op("Matmul"), a_(Save(std::move(a))), b_(Save(std::move(b))) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    // dA = g · Bᵀ ; dB = Aᵀ · g. Both kernels overwrite their output.
    const Tensor& av = a_.get();
    const Tensor& bv = b_.get();
    Tensor da = ctx.AllocBackwardUninit(av.shape());
    MatmulTransBInto(g, bv, &da);
    Tensor db = ctx.AllocBackwardUninit(bv.shape());
    MatmulTransAInto(av, g, &db);
    return {da, db};
  }

 private:
  SavedTensor a_, b_;
};

class LinearOp final : public Op {
 public:
  LinearOp(Tensor x, Tensor w, bool has_bias)
      : Op("Linear"),
        x_(Save(std::move(x))),
        w_(Save(std::move(w))),
        has_bias_(has_bias) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    // dx = g · W ; dW = gᵀ · x ; db = Σ_rows g. MatmulInto accumulates, so
    // dx uses the zeroed variant; the others overwrite.
    std::vector<Tensor> grads;
    const Tensor& xv = x_.get();
    const Tensor& wv = w_.get();
    Tensor dx = ctx.AllocBackward(xv.shape());
    MatmulInto(g, wv, &dx);
    grads.push_back(std::move(dx));
    Tensor dw = ctx.AllocBackwardUninit(wv.shape());
    MatmulTransAInto(g, xv, &dw);
    grads.push_back(std::move(dw));
    if (has_bias_) {
      Tensor db = ctx.AllocBackwardUninit(Shape{g.dim(1)});
      SumAxisInto(g, 0, &db);
      grads.push_back(std::move(db));
    }
    return grads;
  }

 private:
  SavedTensor x_, w_;
  bool has_bias_;
};

// C[n] = A[n] · B[n] for 2-D blocks, optionally transposing either operand.
// `out` must be a pre-zeroed [batch, n, m] tensor.
void BatchedMatmulRawInto(const Tensor& a, const Tensor& b, bool trans_a,
                          bool trans_b, Tensor* out) {
  const int64_t batch = a.dim(0);
  const int64_t ar = a.dim(1), ac = a.dim(2);
  const int64_t br = b.dim(1), bc = b.dim(2);
  const int64_t n = trans_a ? ac : ar;
  const int64_t k = trans_a ? ar : ac;
  const int64_t k2 = trans_b ? bc : br;
  const int64_t m = trans_b ? br : bc;
  ML_CHECK_EQ(k, k2);
  ML_CHECK_EQ(b.dim(0), batch);
  ML_CHECK((out->shape() == Shape{batch, n, m}));
  // Each 2-D block goes through the packed engine; the stored-transposed
  // operand layouts ([k,n] / [m,k]) are exactly the engine's trans flags.
  for (int64_t s = 0; s < batch; ++s) {
    GemmPacked(a.data() + s * ar * ac, trans_a, b.data() + s * br * bc,
               trans_b, out->data() + s * n * m, n, k, m,
               /*accumulate=*/true);
  }
}

class BatchedMatmulOp final : public Op {
 public:
  BatchedMatmulOp(Tensor a, Tensor b)
      : Op("BatchedMatmul"), a_(Save(std::move(a))), b_(Save(std::move(b))) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    // dA[n] = g[n] · B[n]ᵀ ; dB[n] = A[n]ᵀ · g[n]. The batched kernel
    // accumulates, so both outputs need the zeroed variant.
    const Tensor& av = a_.get();
    const Tensor& bv = b_.get();
    Tensor da = ctx.AllocBackward(av.shape());
    BatchedMatmulRawInto(g, bv, false, true, &da);
    Tensor db = ctx.AllocBackward(bv.shape());
    BatchedMatmulRawInto(av, g, true, false, &db);
    return {da, db};
  }

 private:
  SavedTensor a_, b_;
};

class PerSamplePointwiseConvOp final : public Op {
 public:
  PerSamplePointwiseConvOp(Tensor x, Tensor w)
      : Op("PerSamplePointwiseConv"),
        x_(Save(std::move(x))),
        w_(Save(std::move(w))) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    // Both per-sample GEMMs accumulate: zeroed buffers required.
    Tensor gx = ctx.AllocBackward(x_.get().shape());
    Tensor gw = ctx.AllocBackward(w_.get().shape());
    PerSamplePointwiseConvBackward(x_.get(), w_.get(), g, &gx, &gw);
    return {gx, gw};
  }

 private:
  SavedTensor x_, w_;
};

}  // namespace

Variable Matmul(const Variable& a, const Variable& b) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "Matmul");
  // Plain A·B has no frozen x·Wᵀ weight, so int8 downgrades to bf16.
  const OpPrecision prec = ForwardGemmPrecision(ctx, /*int8_capable=*/false);
  ctx.RecordGemmDispatch(prec);
  Tensor out = ctx.AllocResult(Shape{a.dim(0), b.dim(1)});
  if (prec == OpPrecision::kBf16) {
    GemmPackedBf16(a.value().data(), false, b.value().data(), false,
                   out.data(), a.dim(0), a.dim(1), b.dim(1),
                   /*accumulate=*/true);
  } else {
    MatmulInto(a.value(), b.value(), &out);
  }
  prof.set_output(out);
  return MakeOpResult<MatmulOp>(std::move(out), {a, b}, a.value(), b.value());
}

Variable Linear(const Variable& x, const Variable& weight,
                const Variable& bias) {
  ML_CHECK_EQ(x.rank(), 2);
  ML_CHECK_EQ(weight.rank(), 2);
  ML_CHECK_EQ(x.dim(1), weight.dim(1))
      << "Linear: x " << x.shape().ToString() << " vs W "
      << weight.shape().ToString();
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "Linear");
  // y = x · Wᵀ (+ b). Linear is the primary low-precision site: its
  // weight layout is exactly what the quantized-shadow registry packs, so
  // int8/bf16 resolve to pack-once prepacked forms when the weight was
  // registered (adapter publish / precision eval), and bf16 falls back to
  // dynamic packing otherwise. Bias addition stays fp32 (epilogue).
  const int64_t rows = x.dim(0);
  const int64_t in = weight.dim(1);
  const int64_t out_ch = weight.dim(0);
  OpPrecision prec = ForwardGemmPrecision(ctx, /*int8_capable=*/true);
  Tensor out = ctx.AllocResultUninit(Shape{rows, out_ch});
  if (prec == OpPrecision::kInt8) {
    const auto shadow = lowp::FindInt8Shadow(weight.value().data(), in, out_ch);
    if (shadow != nullptr) {
      GemmInt8Prepacked(x.value().data(), *shadow, out.data(), rows,
                        /*accumulate=*/false);
    } else {
      prec = OpPrecision::kBf16;  // no quantized shadow: bf16 fallback
    }
  }
  if (prec == OpPrecision::kBf16) {
    const auto shadow = lowp::FindBf16Shadow(weight.value().data(), in, out_ch);
    if (shadow != nullptr) {
      GemmBf16Prepacked(x.value().data(), *shadow, out.data(), rows,
                        /*accumulate=*/false);
    } else {
      GemmPackedBf16(x.value().data(), false, weight.value().data(), true,
                     out.data(), rows, in, out_ch, /*accumulate=*/false);
    }
  } else if (prec == OpPrecision::kFp32) {
    MatmulTransBInto(x.value(), weight.value(), &out);
  }
  ctx.RecordGemmDispatch(prec);
  const bool has_bias = bias.defined();
  if (has_bias) {
    ML_CHECK_EQ(bias.rank(), 1);
    ML_CHECK_EQ(bias.dim(0), weight.dim(0));
    const float* pb = bias.value().data();
    float* po = out.data();
    const int64_t n = out.dim(0), c = out.dim(1);
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = 0; j < c; ++j) po[i * c + j] += pb[j];
  }
  prof.set_output(out);
  std::vector<Variable> inputs = has_bias
                                     ? std::vector<Variable>{x, weight, bias}
                                     : std::vector<Variable>{x, weight};
  return MakeOpResult<LinearOp>(std::move(out), std::move(inputs), x.value(),
                                weight.value(), has_bias);
}

Variable BatchedMatmul(const Variable& a, const Variable& b) {
  ML_CHECK_EQ(a.rank(), 3);
  ML_CHECK_EQ(b.rank(), 3);
  ML_CHECK_EQ(a.dim(0), b.dim(0));
  ML_CHECK_EQ(a.dim(2), b.dim(1));
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "BatchedMatmul");
  const OpPrecision prec = ForwardGemmPrecision(ctx, /*int8_capable=*/false);
  ctx.RecordGemmDispatch(prec);
  Tensor out = ctx.AllocResult(Shape{a.dim(0), a.dim(1), b.dim(2)});
  if (prec == OpPrecision::kBf16) {
    const int64_t batch = a.dim(0), n = a.dim(1), k = a.dim(2), m = b.dim(2);
    for (int64_t s = 0; s < batch; ++s) {
      GemmPackedBf16(a.value().data() + s * n * k, false,
                     b.value().data() + s * k * m, false,
                     out.data() + s * n * m, n, k, m, /*accumulate=*/true);
    }
  } else {
    BatchedMatmulRawInto(a.value(), b.value(), false, false, &out);
  }
  prof.set_output(out);
  return MakeOpResult<BatchedMatmulOp>(std::move(out), {a, b}, a.value(),
                                       b.value());
}

Variable PerSamplePointwiseConv(const Variable& x, const Variable& w) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "PerSamplePointwiseConv");
  const OpPrecision prec = ForwardGemmPrecision(ctx, /*int8_capable=*/false);
  ctx.RecordGemmDispatch(prec);
  // The kernel accumulates: zeroed output required.
  Tensor out = ctx.AllocResult(Shape{x.dim(0), w.dim(1), x.dim(2), x.dim(3)});
  PerSamplePointwiseConvInto(x.value(), w.value(), &out, prec);
  prof.set_output(out);
  return MakeOpResult<PerSamplePointwiseConvOp>(std::move(out), {x, w},
                                                x.value(), w.value());
}

}  // namespace autograd
}  // namespace metalora
