#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "autograd/op.h"
#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace autograd {

namespace {

// One gradient-pass-through edge per input (Add, AddScalar).
class PassThroughOp final : public Op {
 public:
  PassThroughOp(const char* name, int64_t arity) : Op(name), arity_(arity) {}

  std::vector<Tensor> Backward(RuntimeContext&, const Tensor& g) override {
    return std::vector<Tensor>(static_cast<size_t>(arity_), g);
  }

 private:
  int64_t arity_;
};

class SubOp final : public Op {
 public:
  SubOp() : Op("Sub") {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    Tensor gb = ctx.AllocBackwardUninit(g.shape());
    metalora::ScaleInto(g, -1.0f, &gb);
    return {g, gb};
  }
};

class MulOp final : public Op {
 public:
  MulOp(Tensor a, Tensor b)
      : Op("Mul"), a_(Save(std::move(a))), b_(Save(std::move(b))) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    Tensor ga = ctx.AllocBackwardUninit(g.shape());
    metalora::MulInto(g, b_.get(), &ga);
    Tensor gb = ctx.AllocBackwardUninit(g.shape());
    metalora::MulInto(g, a_.get(), &gb);
    return {ga, gb};
  }

 private:
  SavedTensor a_, b_;
};

class ScaleOp final : public Op {
 public:
  explicit ScaleOp(float s) : Op("Scale"), s_(s) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    Tensor ga = ctx.AllocBackwardUninit(g.shape());
    metalora::ScaleInto(g, s_, &ga);
    return {ga};
  }

 private:
  float s_;
};

class AddRowBroadcastOp final : public Op {
 public:
  AddRowBroadcastOp() : Op("AddRowBroadcast") {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    Tensor gb = ctx.AllocBackwardUninit(Shape{g.dim(1)});
    SumAxisInto(g, 0, &gb);
    return {g, gb};
  }
};

class MulRowBroadcastOp final : public Op {
 public:
  MulRowBroadcastOp(Tensor a, Tensor row)
      : Op("MulRowBroadcast"), a_(Save(std::move(a))), row_(Save(std::move(row))) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    const Tensor& av = a_.get();
    const Tensor& rv = row_.get();
    const int64_t n = av.dim(0), c = av.dim(1);
    Tensor ga = ctx.AllocBackwardUninit(av.shape());
    // gr accumulates row contributions with +=: zeroed buffer required.
    Tensor gr = ctx.AllocBackward(rv.shape());
    const float* pg = g.data();
    const float* pa = av.data();
    const float* pr = rv.data();
    float* pga = ga.data();
    float* pgr = gr.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < c; ++j) {
        pga[i * c + j] = pg[i * c + j] * pr[j];
        pgr[j] += pg[i * c + j] * pa[i * c + j];
      }
    }
    return {ga, gr};
  }

 private:
  SavedTensor a_, row_;
};

class ScaleChannelsOp final : public Op {
 public:
  ScaleChannelsOp(Tensor a, Tensor s)
      : Op("ScaleChannels"), a_(Save(std::move(a))), s_(Save(std::move(s))) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    const Tensor& av = a_.get();
    const Tensor& sv = s_.get();
    const int64_t n = av.dim(0), c = av.dim(1),
                  spatial = av.dim(2) * av.dim(3);
    Tensor ga = ctx.AllocBackwardUninit(av.shape());
    Tensor gs = ctx.AllocBackwardUninit(sv.shape());
    const float* pg = g.data();
    const float* pa = av.data();
    const float* ps = sv.data();
    float* pga = ga.data();
    float* pgs = gs.data();
    for (int64_t i = 0; i < n * c; ++i) {
      const float scale = ps[i];
      const float* gplane = pg + i * spatial;
      const float* aplane = pa + i * spatial;
      float* gaplane = pga + i * spatial;
      float acc = 0.0f;
      for (int64_t k = 0; k < spatial; ++k) {
        gaplane[k] = gplane[k] * scale;
        acc += gplane[k] * aplane[k];
      }
      pgs[i] = acc;
    }
    return {ga, gs};
  }

 private:
  SavedTensor a_, s_;
};

class ScaleRowsOp final : public Op {
 public:
  ScaleRowsOp(Tensor a, Tensor s)
      : Op("ScaleRows"), a_(Save(std::move(a))), s_(Save(std::move(s))) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    const Tensor& av = a_.get();
    const Tensor& sv = s_.get();
    const int64_t n = av.dim(0);
    const int64_t rest = av.numel() / std::max<int64_t>(n, 1);
    Tensor ga = ctx.AllocBackwardUninit(av.shape());
    Tensor gs = ctx.AllocBackwardUninit(sv.shape());
    const float* pg = g.data();
    const float* pa = av.data();
    const float* ps = sv.data();
    float* pga = ga.data();
    float* pgs = gs.data();
    for (int64_t i = 0; i < n; ++i) {
      const float scale = ps[i];
      float acc = 0.0f;
      for (int64_t k = 0; k < rest; ++k) {
        pga[i * rest + k] = pg[i * rest + k] * scale;
        acc += pg[i * rest + k] * pa[i * rest + k];
      }
      pgs[i] = acc;
    }
    return {ga, gs};
  }

 private:
  SavedTensor a_, s_;
};

class MulScalarVarOp final : public Op {
 public:
  MulScalarVarOp(Tensor a, float sv, Shape s_shape)
      : Op("MulScalarVar"),
        a_(Save(std::move(a))),
        sv_(sv),
        s_shape_(std::move(s_shape)) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    const Tensor& av = a_.get();
    Tensor gs = ctx.AllocBackwardUninit(s_shape_);
    double acc = 0;
    const float* pg = g.data();
    const float* pa = av.data();
    for (int64_t i = 0, n = g.numel(); i < n; ++i)
      acc += static_cast<double>(pg[i]) * pa[i];
    gs.flat(0) = static_cast<float>(acc);
    Tensor ga = ctx.AllocBackwardUninit(g.shape());
    metalora::ScaleInto(g, sv_, &ga);
    return {ga, gs};
  }

 private:
  SavedTensor a_;
  float sv_;
  Shape s_shape_;
};

class RepeatRowsInterleavedOp final : public Op {
 public:
  RepeatRowsInterleavedOp(Shape in_shape, int64_t n, int64_t k, int64_t rest)
      : Op("RepeatRowsInterleaved"),
        in_shape_(std::move(in_shape)),
        n_(n),
        k_(k),
        rest_(rest) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    // Accumulates the k repeats with +=: zeroed buffer required.
    Tensor ga = ctx.AllocBackward(in_shape_);
    const float* pg = g.data();
    float* pga = ga.data();
    for (int64_t i = 0; i < n_; ++i) {
      float* dst = pga + i * rest_;
      for (int64_t j = 0; j < k_; ++j) {
        const float* src = pg + (i * k_ + j) * rest_;
        for (int64_t t = 0; t < rest_; ++t) dst[t] += src[t];
      }
    }
    return {ga};
  }

 private:
  Shape in_shape_;
  int64_t n_, k_, rest_;
};

// Elementwise op whose derivative is a function of the saved *input*.
template <float (*Dfn)(float)>
class UnaryFromInputOp final : public Op {
 public:
  UnaryFromInputOp(const char* name, Tensor input)
      : Op(name), input_(Save(std::move(input))) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    Tensor ga = ctx.AllocBackwardUninit(g.shape());
    ZipInto(g, input_.get(), [](float gv, float x) { return gv * Dfn(x); },
            &ga);
    return {ga};
  }

 private:
  SavedTensor input_;
};

// Elementwise op whose derivative is a function of the saved *output*.
template <float (*Dfn)(float)>
class UnaryFromOutputOp final : public Op {
 public:
  UnaryFromOutputOp(const char* name, Tensor output)
      : Op(name), output_(Save(std::move(output))) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    Tensor ga = ctx.AllocBackwardUninit(g.shape());
    ZipInto(g, output_.get(), [](float gv, float y) { return gv * Dfn(y); },
            &ga);
    return {ga};
  }

 private:
  SavedTensor output_;
};

class DropoutOp final : public Op {
 public:
  explicit DropoutOp(Tensor mask) : Op("Dropout"), mask_(Save(std::move(mask))) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    Tensor ga = ctx.AllocBackwardUninit(g.shape());
    metalora::MulInto(g, mask_.get(), &ga);
    return {ga};
  }

 private:
  SavedTensor mask_;
};

class FillLikeOp final : public Op {
 public:
  // SumAll broadcasts g; MeanAll additionally divides by numel (scale).
  FillLikeOp(const char* name, Shape in_shape, float scale)
      : Op(name), in_shape_(std::move(in_shape)), scale_(scale) {}

  std::vector<Tensor> Backward(RuntimeContext& ctx, const Tensor& g) override {
    Tensor ga = ctx.AllocBackwardUninit(in_shape_);
    ga.Fill(g.flat(0) * scale_);
    return {ga};
  }

 private:
  Shape in_shape_;
  float scale_;
};

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "Add");
  Tensor out = ctx.AllocResultUninit(a.shape());
  metalora::AddInto(a.value(), b.value(), &out);
  prof.set_output(out);
  return MakeOpResult<PassThroughOp>(std::move(out), {a, b}, "Add", 2);
}

Variable Sub(const Variable& a, const Variable& b) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "Sub");
  Tensor out = ctx.AllocResultUninit(a.shape());
  metalora::SubInto(a.value(), b.value(), &out);
  prof.set_output(out);
  return MakeOpResult<SubOp>(std::move(out), {a, b});
}

Variable Mul(const Variable& a, const Variable& b) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "Mul");
  Tensor out = ctx.AllocResultUninit(a.shape());
  metalora::MulInto(a.value(), b.value(), &out);
  prof.set_output(out);
  return MakeOpResult<MulOp>(std::move(out), {a, b}, a.value(), b.value());
}

Variable Scale(const Variable& a, float s) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "Scale");
  Tensor out = ctx.AllocResultUninit(a.shape());
  metalora::ScaleInto(a.value(), s, &out);
  prof.set_output(out);
  return MakeOpResult<ScaleOp>(std::move(out), {a}, s);
}

Variable AddScalar(const Variable& a, float s) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "AddScalar");
  Tensor out = ctx.AllocResultUninit(a.shape());
  metalora::AddScalarInto(a.value(), s, &out);
  prof.set_output(out);
  return MakeOpResult<PassThroughOp>(std::move(out), {a}, "AddScalar", 1);
}

Variable Neg(const Variable& a) { return Scale(a, -1.0f); }

Variable AddRowBroadcast(const Variable& a, const Variable& bias) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "AddRowBroadcast");
  Tensor out = ctx.AllocResultUninit(a.shape());
  metalora::AddRowBroadcastInto(a.value(), bias.value(), &out);
  prof.set_output(out);
  return MakeOpResult<AddRowBroadcastOp>(std::move(out), {a, bias});
}

Variable MulRowBroadcast(const Variable& a, const Variable& row) {
  ML_CHECK_EQ(a.rank(), 2);
  ML_CHECK_EQ(row.rank(), 1);
  ML_CHECK_EQ(a.dim(1), row.dim(0));
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "MulRowBroadcast");
  const int64_t n = a.dim(0), c = a.dim(1);
  Tensor out = ctx.AllocResultUninit(a.shape());
  {
    const float* pa = a.value().data();
    const float* pr = row.value().data();
    float* po = out.data();
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = 0; j < c; ++j) po[i * c + j] = pa[i * c + j] * pr[j];
  }
  prof.set_output(out);
  return MakeOpResult<MulRowBroadcastOp>(std::move(out), {a, row}, a.value(),
                                         row.value());
}

Variable ScaleChannels(const Variable& a, const Variable& s) {
  ML_CHECK_EQ(a.rank(), 4);
  ML_CHECK_EQ(s.rank(), 2);
  ML_CHECK_EQ(a.dim(0), s.dim(0));
  ML_CHECK_EQ(a.dim(1), s.dim(1));
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "ScaleChannels");
  const int64_t n = a.dim(0), c = a.dim(1), spatial = a.dim(2) * a.dim(3);
  Tensor out = ctx.AllocResultUninit(a.shape());
  {
    const float* pa = a.value().data();
    const float* ps = s.value().data();
    float* po = out.data();
    for (int64_t i = 0; i < n * c; ++i) {
      const float sv = ps[i];
      const float* plane = pa + i * spatial;
      float* oplane = po + i * spatial;
      for (int64_t k = 0; k < spatial; ++k) oplane[k] = plane[k] * sv;
    }
  }
  prof.set_output(out);
  return MakeOpResult<ScaleChannelsOp>(std::move(out), {a, s}, a.value(),
                                       s.value());
}

Variable ScaleRows(const Variable& a, const Variable& s) {
  ML_CHECK_GE(a.rank(), 1);
  ML_CHECK_EQ(s.rank(), 1);
  ML_CHECK_EQ(a.dim(0), s.dim(0));
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "ScaleRows");
  const int64_t n = a.dim(0);
  const int64_t rest = a.numel() / std::max<int64_t>(n, 1);
  Tensor out = ctx.AllocResultUninit(a.shape());
  {
    const float* pa = a.value().data();
    const float* ps = s.value().data();
    float* po = out.data();
    for (int64_t i = 0; i < n; ++i) {
      const float sv = ps[i];
      for (int64_t k = 0; k < rest; ++k)
        po[i * rest + k] = pa[i * rest + k] * sv;
    }
  }
  prof.set_output(out);
  return MakeOpResult<ScaleRowsOp>(std::move(out), {a, s}, a.value(),
                                   s.value());
}

Variable MulScalarVar(const Variable& a, const Variable& s) {
  ML_CHECK_EQ(s.numel(), 1);
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "MulScalarVar");
  const float sv = s.value().flat(0);
  Tensor out = ctx.AllocResultUninit(a.shape());
  metalora::ScaleInto(a.value(), sv, &out);
  prof.set_output(out);
  return MakeOpResult<MulScalarVarOp>(std::move(out), {a, s}, a.value(), sv,
                                      s.shape());
}

Variable RepeatRowsInterleaved(const Variable& a, int64_t k) {
  ML_CHECK_GE(a.rank(), 1);
  ML_CHECK_GT(k, 0);
  if (k == 1) return a;
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "RepeatRowsInterleaved");
  const int64_t n = a.dim(0);
  const int64_t rest = a.numel() / std::max<int64_t>(n, 1);
  std::vector<int64_t> out_dims = a.shape().dims();
  out_dims[0] = n * k;
  Tensor out = ctx.AllocResultUninit(Shape(out_dims));
  {
    const float* pa = a.value().data();
    float* po = out.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < k; ++j) {
        std::copy(pa + i * rest, pa + (i + 1) * rest,
                  po + (i * k + j) * rest);
      }
    }
  }
  prof.set_output(out);
  return MakeOpResult<RepeatRowsInterleavedOp>(std::move(out), {a}, a.shape(),
                                               n, k, rest);
}

namespace {

inline float ReluBwd(float x) { return x > 0 ? 1.0f : 0.0f; }
inline float SquareBwd(float x) { return 2.0f * x; }
inline float TanhBwdFromOutput(float y) { return 1.0f - y * y; }
inline float SigmoidBwdFromOutput(float y) { return y * (1.0f - y); }
inline float ExpBwdFromOutput(float y) { return y; }

// tanh-approximation GELU and its derivative.
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

inline float GeluFwd(float x) {
  const float t = std::tanh(kGeluC * (x + kGeluA * x * x * x));
  return 0.5f * x * (1.0f + t);
}

inline float GeluBwd(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  const float t = std::tanh(u);
  const float sech2 = 1.0f - t * t;
  const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * du;
}

// Shared facade body for elementwise activations saving their input.
template <float (*Dfn)(float), typename FwdFn>
Variable UnaryFromInput(const Variable& a, const char* name, FwdFn fwd) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, name);
  Tensor out = ctx.AllocResultUninit(a.shape());
  MapInto(a.value(), fwd, &out);
  prof.set_output(out);
  return MakeOpResult<UnaryFromInputOp<Dfn>>(std::move(out), {a}, name,
                                             a.value());
}

// Shared facade body for elementwise activations saving their output.
template <float (*Dfn)(float), typename FwdFn>
Variable UnaryFromOutput(const Variable& a, const char* name, FwdFn fwd) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, name);
  Tensor out = ctx.AllocResultUninit(a.shape());
  MapInto(a.value(), fwd, &out);
  prof.set_output(out);
  Tensor saved = out;  // O(1) shared-buffer copy
  return MakeOpResult<UnaryFromOutputOp<Dfn>>(std::move(out), {a}, name,
                                              std::move(saved));
}

}  // namespace

Variable Relu(const Variable& a) {
  return UnaryFromInput<ReluBwd>(a, "Relu",
                                 [](float v) { return v > 0 ? v : 0.0f; });
}

Variable Gelu(const Variable& a) {
  return UnaryFromInput<GeluBwd>(a, "Gelu", GeluFwd);
}

Variable Tanh(const Variable& a) {
  return UnaryFromOutput<TanhBwdFromOutput>(
      a, "Tanh", [](float v) { return std::tanh(v); });
}

Variable Sigmoid(const Variable& a) {
  return UnaryFromOutput<SigmoidBwdFromOutput>(
      a, "Sigmoid", [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

Variable Square(const Variable& a) {
  return UnaryFromInput<SquareBwd>(a, "Square",
                                   [](float v) { return v * v; });
}

Variable Exp(const Variable& a) {
  return UnaryFromOutput<ExpBwdFromOutput>(
      a, "Exp", [](float v) { return std::exp(v); });
}

Variable Dropout(const Variable& a, float p, bool training, Rng& rng) {
  ML_CHECK(p >= 0.0f && p < 1.0f) << "dropout probability out of range";
  if (!training || p == 0.0f) return a;
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "Dropout");
  const float keep = 1.0f - p;
  const float inv_keep = 1.0f / keep;
  Tensor mask{a.shape()};
  float* pm = mask.data();
  for (int64_t i = 0, n = mask.numel(); i < n; ++i) {
    pm[i] = rng.Bernoulli(keep) ? inv_keep : 0.0f;
  }
  Tensor out = ctx.AllocResultUninit(a.shape());
  metalora::MulInto(a.value(), mask, &out);
  prof.set_output(out);
  return MakeOpResult<DropoutOp>(std::move(out), {a}, std::move(mask));
}

Variable SumAll(const Variable& a) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "SumAll");
  Tensor out = ctx.AllocResultUninit(Shape{});
  out.flat(0) = static_cast<float>(metalora::SumAll(a.value()));
  prof.set_output(out);
  return MakeOpResult<FillLikeOp>(std::move(out), {a}, "SumAll", a.shape(),
                                  1.0f);
}

Variable MeanAll(const Variable& a) {
  RuntimeContext& ctx = RuntimeContext::Current();
  ProfileScope prof(ctx, "MeanAll");
  const float inv = 1.0f / static_cast<float>(a.numel());
  Tensor out = ctx.AllocResultUninit(Shape{});
  out.flat(0) = static_cast<float>(metalora::MeanAll(a.value()));
  prof.set_output(out);
  return MakeOpResult<FillLikeOp>(std::move(out), {a}, "MeanAll", a.shape(),
                                  inv);
}

}  // namespace autograd
}  // namespace metalora
