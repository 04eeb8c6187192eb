#include "core/lotr_adapter.h"

#include <cmath>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "tensor/matmul.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace core {

namespace {

// Aligns a per-sample seed with the rows of `x` (see metalora_linear.cc):
// token-wise layers flatten to [N*S, D] sample-major, so the seed repeats
// S times per sample.
Variable AlignSeedToRows(const Variable& seed, int64_t x_rows) {
  const int64_t n = seed.dim(0);
  ML_CHECK(x_rows % n == 0 && x_rows >= n)
      << "conditioning features batch size mismatch: x has " << x_rows
      << " rows, features have " << n;
  return autograd::RepeatRowsInterleaved(seed, x_rows / n);
}

// Scales each column j of g [R, R] by c[j]: G·diag(c), the seed landing
// between the down projection and the core exactly as in Forward.
Tensor ScaleCoreColumns(const Tensor& g, const Tensor& c) {
  Tensor out = g.Clone();
  const int64_t r = g.dim(0);
  for (int64_t i = 0; i < r; ++i) {
    for (int64_t j = 0; j < r; ++j) {
      out.flat(i * r + j) *= c.flat(j);
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Linear.
// ---------------------------------------------------------------------------

LotrLinear::LotrLinear(std::unique_ptr<nn::Linear> base,
                       const AdapterOptions& options, const LotrShare* share)
    : Adapter("LotrLinear", options) {
  ML_CHECK(base != nullptr);
  ML_CHECK_GT(options.rank, 0);
  const int64_t in = base->in_features();
  const int64_t out = base->out_features();
  const int64_t r = options.rank;
  scaling_ = options.alpha / static_cast<float>(r);
  meta_ = options.kind == AdapterKind::kMetaLotr;
  owns_shared_ = share == nullptr;

  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options.seed);
  if (owns_shared_) {
    Tensor a{Shape{r, in}};
    KaimingNormal(a, rng, in);
    down_ = RegisterParameter("lotr_down", std::move(a));
    // Gaussian up: the zero-init core G already pins the start point, and a
    // zero B·zero G product would leave both without gradient.
    Tensor b{Shape{out, r}};
    FillNormal(b, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(r)));
    up_ = RegisterParameter("lotr_up", std::move(b));
  } else {
    ML_CHECK_EQ(share->down.dim(0), r);
    ML_CHECK_EQ(share->down.dim(1), in);
    ML_CHECK_EQ(share->up.dim(0), out);
    ML_CHECK_EQ(share->up.dim(1), r);
    down_ = share->down;  // aliases the owner's storage, unregistered here
    up_ = share->up;
  }
  core_g_ = RegisterParameter("lotr_core", Tensor::Zeros(Shape{r, r}));
  if (meta_) {
    ML_CHECK_GT(options.feature_dim, 0)
        << "Meta-LoTR needs options.feature_dim";
    mapping_ = RegisterModule(
        "mapping",
        std::make_unique<MappingNet>(options.feature_dim,
                                     options.mapping_hidden, r,
                                     SeedShape::kVector, rng));
  }
}

Variable LotrLinear::Forward(const Variable& x) {
  Variable features;
  if (meta_) {
    features = bound_features();
    ML_CHECK(features.defined())
        << "LotrLinear: SetFeatures must be called before Forward";
  }
  Variable y = base_->Forward(x);
  Variable h = autograd::Linear(x, down_, Variable());  // [N, R]
  if (meta_) {
    Variable seed = cache_.SeedOrCompute(
        cache_salt_, features,
        [&] { return mapping_->Forward(features); });  // [N, R]
    h = autograd::Mul(h, AlignSeedToRows(seed, x.dim(0)));
  }
  h = autograd::Linear(h, core_g_, Variable());       // [N, R]
  Variable d = autograd::Linear(h, up_, Variable());  // [N, O]
  return autograd::Add(y, autograd::Scale(d, scaling_));
}

int64_t LotrLinear::AdapterParamCount() const {
  int64_t n = core_g_.numel();
  if (owns_shared_) n += down_.numel() + up_.numel();
  if (meta_) n += mapping_->ParamCount();
  return n;
}

Tensor LotrLinear::DeltaWeight() const {
  // ΔW = scaling · B · G · A, layer layout [O, I].
  Tensor bg = Matmul(up_.value(), core_g_.value());  // [O, R]
  Tensor delta = Matmul(bg, down_.value());          // [O, I]
  ScaleInPlace(delta, scaling_);
  return delta;
}

Tensor LotrLinear::DeltaWeightFor(const Tensor& seed_c) const {
  ML_CHECK_EQ(seed_c.rank(), 1);
  ML_CHECK_EQ(seed_c.dim(0), options_.rank);
  Tensor bg = Matmul(up_.value(),
                     ScaleCoreColumns(core_g_.value(), seed_c));  // [O, R]
  Tensor delta = Matmul(bg, down_.value());                       // [O, I]
  ScaleInPlace(delta, scaling_);
  return delta;
}

// ---------------------------------------------------------------------------
// Conv.
// ---------------------------------------------------------------------------

LotrConv::LotrConv(std::unique_ptr<nn::Conv2d> base,
                   const AdapterOptions& options, const LotrShare* share)
    : Adapter("LotrConv", options) {
  ML_CHECK(base != nullptr);
  ML_CHECK_GT(options.rank, 0);
  const int64_t in = base->in_channels();
  const int64_t out = base->out_channels();
  const int64_t k = base->geom().kernel_h;
  ML_CHECK_EQ(base->geom().kernel_w, k) << "LotrConv expects square kernels";
  const int64_t r = options.rank;
  scaling_ = options.alpha / static_cast<float>(r);
  meta_ = options.kind == AdapterKind::kMetaLotr;
  owns_shared_ = share == nullptr;

  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options.seed);
  if (owns_shared_) {
    Tensor a{Shape{r, in, k, k}};
    KaimingNormal(a, rng, in * k * k);
    down_ = RegisterParameter("lotr_down", std::move(a));
    Tensor b{Shape{out, r}};
    FillNormal(b, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(r)));
    up_ = RegisterParameter("lotr_up", std::move(b));
  } else {
    ML_CHECK_EQ(share->down.dim(0), r);
    ML_CHECK_EQ(share->down.dim(1), in);
    ML_CHECK_EQ(share->down.dim(2), k);
    ML_CHECK_EQ(share->up.dim(0), out);
    ML_CHECK_EQ(share->up.dim(1), r);
    down_ = share->down;
    up_ = share->up;
  }
  core_g_ = RegisterParameter("lotr_core", Tensor::Zeros(Shape{r, r}));
  if (meta_) {
    ML_CHECK_GT(options.feature_dim, 0)
        << "Meta-LoTR needs options.feature_dim";
    mapping_ = RegisterModule(
        "mapping",
        std::make_unique<MappingNet>(options.feature_dim,
                                     options.mapping_hidden, r,
                                     SeedShape::kVector, rng));
  }
}

Variable LotrConv::Forward(const Variable& x) {
  Variable y = base_->Forward(x);
  const int64_t r = options_.rank;
  Variable h = autograd::Conv2d(x, down_, Variable(), base_->geom());
  if (meta_) {
    const Variable features = bound_features();
    ML_CHECK(features.defined())
        << "LotrConv: SetFeatures must be called before Forward";
    ML_CHECK_EQ(features.dim(0), x.dim(0));
    Variable seed = cache_.SeedOrCompute(
        cache_salt_, features,
        [&] { return mapping_->Forward(features); });  // [N, R]
    h = autograd::ScaleChannels(h, seed);
  }
  ConvGeom pointwise;
  pointwise.kernel_h = 1;
  pointwise.kernel_w = 1;
  pointwise.stride = 1;
  pointwise.padding = 0;
  // Thin per-layer core as a 1×1 mixing conv over the R channels.
  Variable g4 = autograd::Reshape(core_g_, Shape{r, r, 1, 1});
  h = autograd::Conv2d(h, g4, Variable(), pointwise);
  const int64_t out = base_->out_channels();
  Variable b4 = autograd::Reshape(up_, Shape{out, r, 1, 1});
  Variable d = autograd::Conv2d(h, b4, Variable(), pointwise);
  return autograd::Add(y, autograd::Scale(d, scaling_));
}

int64_t LotrConv::AdapterParamCount() const {
  int64_t n = core_g_.numel();
  if (owns_shared_) n += down_.numel() + up_.numel();
  if (meta_) n += mapping_->ParamCount();
  return n;
}

Tensor LotrConv::DeltaWeightImpl(const Tensor* seed_c) const {
  const int64_t rk = options_.rank;
  const int64_t in = base_->in_channels();
  const int64_t out = base_->out_channels();
  const int64_t k = base_->geom().kernel_h;
  // M = B · G (· diag(c)): the effective [O, R] recovery for this layer.
  Tensor g = seed_c == nullptr ? core_g_.value().Clone()
                               : ScaleCoreColumns(core_g_.value(), *seed_c);
  Tensor m = Matmul(up_.value(), g);  // [O, R]
  Tensor delta{Shape{out, in, k, k}};
  const float* pa = down_.value().data();  // [R, I, K, K]
  const float* pm = m.data();
  float* pd = delta.data();
  const int64_t filt = in * k * k;
  for (int64_t o = 0; o < out; ++o) {
    float* drow = pd + o * filt;
    for (int64_t rr = 0; rr < rk; ++rr) {
      const float bv = scaling_ * pm[o * rk + rr];
      if (bv == 0.0f) continue;
      const float* arow = pa + rr * filt;
      for (int64_t i = 0; i < filt; ++i) drow[i] += bv * arow[i];
    }
  }
  return delta;
}

Tensor LotrConv::DeltaWeight() const { return DeltaWeightImpl(nullptr); }

Tensor LotrConv::DeltaWeightFor(const Tensor& seed_c) const {
  ML_CHECK_EQ(seed_c.rank(), 1);
  ML_CHECK_EQ(seed_c.dim(0), options_.rank);
  return DeltaWeightImpl(&seed_c);
}

}  // namespace core
}  // namespace metalora
