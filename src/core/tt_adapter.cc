#include "core/tt_adapter.h"

#include <cmath>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "tensor/matmul.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"
#include "tn/tn_cost.h"

namespace metalora {
namespace core {

namespace {

// Aligns a per-sample seed with the rows of `x` (see metalora_linear.cc).
Variable AlignSeedToRows(const Variable& seed, int64_t x_rows) {
  const int64_t n = seed.dim(0);
  ML_CHECK(x_rows % n == 0 && x_rows >= n)
      << "conditioning features batch size mismatch: x has " << x_rows
      << " rows, features have " << n;
  return autograd::RepeatRowsInterleaved(seed, x_rows / n);
}

// Scales row r of m [R, C] by c[r] — the bond seed folded into B_up.
Tensor ScaleRows(const Tensor& m, const Tensor& c) {
  Tensor out = m.Clone();
  const int64_t r = m.dim(0), cols = m.numel() / r;
  for (int64_t i = 0; i < r; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      out.flat(i * cols + j) *= c.flat(i);
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Linear.
// ---------------------------------------------------------------------------

TtLinear::TtLinear(std::unique_ptr<nn::Linear> base,
                   const AdapterOptions& options)
    : Adapter("TtLinear", options) {
  ML_CHECK(base != nullptr);
  ML_CHECK_GT(options.rank, 0);
  const int64_t in = base->in_features();
  const int64_t out = base->out_features();
  const int64_t r = options.rank;
  i1_ = tn::TtSplitDim(in);
  i2_ = in / i1_;
  o1_ = tn::TtSplitDim(out);
  o2_ = out / o1_;
  scaling_ = options.alpha / static_cast<float>(r);
  meta_ = options.kind == AdapterKind::kMetaTt;

  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options.seed);
  // Stds chosen so the contracted A_down matches Kaiming over I:
  // var(A_down) = R · var(G1) · var(G2) = R · √(2/I) · √(2/I) / R = 2/I.
  const float in_std =
      std::pow(2.0f / static_cast<float>(in), 0.25f);
  Tensor g1{Shape{i1_, r}};
  FillNormal(g1, rng, 0.0f, in_std);
  tt_in_a_ = RegisterParameter("tt_in_a", std::move(g1));
  Tensor g2{Shape{r, i2_, r}};
  FillNormal(g2, rng, 0.0f, in_std / std::sqrt(static_cast<float>(r)));
  tt_in_b_ = RegisterParameter("tt_in_b", std::move(g2));
  Tensor g3{Shape{r, o1_, r}};
  FillNormal(g3, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(r)));
  tt_out_a_ = RegisterParameter("tt_out_a", std::move(g3));
  // Zero-init last core: B_up = G3·G4 vanishes, so the adapted model starts
  // at the pre-trained point and G3 still receives gradient through G4.
  tt_out_b_ = RegisterParameter("tt_out_b", Tensor::Zeros(Shape{r, o2_}));
  if (meta_) {
    ML_CHECK_GT(options.feature_dim, 0)
        << "Meta-TT needs options.feature_dim";
    mapping_ = RegisterModule(
        "mapping",
        std::make_unique<MappingNet>(options.feature_dim,
                                     options.mapping_hidden, r,
                                     SeedShape::kVector, rng));
  }
}

Variable TtLinear::Forward(const Variable& x) {
  Variable features;
  if (meta_) {
    features = bound_features();
    ML_CHECK(features.defined())
        << "TtLinear: SetFeatures must be called before Forward";
  }
  const int64_t in = base_->in_features();
  const int64_t out = base_->out_features();
  const int64_t r = options_.rank;
  Variable y = base_->Forward(x);
  // A_down[(a,b), c] = Σ_r G1[a,r]·G2[r,b,c]; row (a,b) is exactly the
  // i1-major flat input index, so no permute is needed.
  Variable adown = autograd::Reshape(
      autograd::Matmul(tt_in_a_,
                       autograd::Reshape(tt_in_b_, Shape{r, i2_ * r})),
      Shape{in, r});
  // B_up[r0, (p,q)] = Σ_r1 G3[r0,p,r1]·G4[r1,q]; col (p,q) is the o1-major
  // flat output index.
  Variable bup = autograd::Reshape(
      autograd::Matmul(autograd::Reshape(tt_out_a_, Shape{r * o1_, r}),
                       tt_out_b_),
      Shape{r, out});
  Variable h = autograd::Matmul(x, adown);  // [N, R]
  if (meta_) {
    Variable seed = cache_.SeedOrCompute(
        cache_salt_, features,
        [&] { return mapping_->Forward(features); });  // [N, R]
    h = autograd::Mul(h, AlignSeedToRows(seed, x.dim(0)));
  }
  Variable d = autograd::Matmul(h, bup);  // [N, O]
  return autograd::Add(y, autograd::Scale(d, scaling_));
}

int64_t TtLinear::AdapterParamCount() const {
  int64_t n = tt_in_a_.numel() + tt_in_b_.numel() + tt_out_a_.numel() +
              tt_out_b_.numel();
  if (meta_) n += mapping_->ParamCount();
  return n;
}

Tensor TtLinear::DeltaWeightImpl(const Tensor* seed_c) const {
  const int64_t in = base_->in_features();
  const int64_t out = base_->out_features();
  const int64_t r = options_.rank;
  Tensor adown = Matmul(tt_in_a_.value(),
                        tt_in_b_.value().Reshape(Shape{r, i2_ * r}))
                     .Reshape(Shape{in, r});
  Tensor bup = Matmul(tt_out_a_.value().Reshape(Shape{r * o1_, r}),
                      tt_out_b_.value())
                   .Reshape(Shape{r, out});
  if (seed_c != nullptr) bup = ScaleRows(bup, *seed_c);
  Tensor delta = Transpose2D(Matmul(adown, bup));  // layer layout [O, I]
  ScaleInPlace(delta, scaling_);
  return delta;
}

Tensor TtLinear::DeltaWeight() const { return DeltaWeightImpl(nullptr); }

Tensor TtLinear::DeltaWeightFor(const Tensor& seed_c) const {
  ML_CHECK_EQ(seed_c.rank(), 1);
  ML_CHECK_EQ(seed_c.dim(0), options_.rank);
  return DeltaWeightImpl(&seed_c);
}

// ---------------------------------------------------------------------------
// Conv.
// ---------------------------------------------------------------------------

TtConv::TtConv(std::unique_ptr<nn::Conv2d> base, const AdapterOptions& options)
    : Adapter("TtConv", options) {
  ML_CHECK(base != nullptr);
  ML_CHECK_GT(options.rank, 0);
  const int64_t in = base->in_channels();
  const int64_t out = base->out_channels();
  const int64_t k = base->geom().kernel_h;
  ML_CHECK_EQ(base->geom().kernel_w, k) << "TtConv expects square kernels";
  const int64_t r = options.rank;
  scaling_ = options.alpha / static_cast<float>(r);
  meta_ = options.kind == AdapterKind::kMetaTt;

  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options.seed);
  // var(w_down) = R · var(Gc) · var(Gs) = 2/(I·K²), Kaiming over the filter.
  const float down_std =
      std::pow(2.0f / static_cast<float>(in * k * k), 0.25f);
  Tensor gc{Shape{r, in, r}};
  FillNormal(gc, rng, 0.0f, down_std);
  tt_channel_ = RegisterParameter("tt_channel", std::move(gc));
  Tensor gs{Shape{r, k * k}};
  FillNormal(gs, rng, 0.0f, down_std / std::sqrt(static_cast<float>(r)));
  tt_spatial_ = RegisterParameter("tt_spatial", std::move(gs));
  tt_out_ = RegisterParameter("tt_out", Tensor::Zeros(Shape{out, r}));
  if (meta_) {
    ML_CHECK_GT(options.feature_dim, 0)
        << "Meta-TT needs options.feature_dim";
    mapping_ = RegisterModule(
        "mapping",
        std::make_unique<MappingNet>(options.feature_dim,
                                     options.mapping_hidden, r,
                                     SeedShape::kVector, rng));
  }
}

Variable TtConv::Forward(const Variable& x) {
  Variable y = base_->Forward(x);
  const int64_t in = base_->in_channels();
  const int64_t out = base_->out_channels();
  const int64_t k = base_->geom().kernel_h;
  const int64_t r = options_.rank;
  // w_down[r0,i,kh,kw] = Σ_r1 Gc[r0,i,r1]·Gs[r1,kh·K+kw] — the TT
  // contraction lands directly in conv weight layout [R, I, K, K].
  Variable wdown = autograd::Reshape(
      autograd::Matmul(autograd::Reshape(tt_channel_, Shape{r * in, r}),
                       tt_spatial_),
      Shape{r, in, k, k});
  Variable h = autograd::Conv2d(x, wdown, Variable(), base_->geom());
  if (meta_) {
    const Variable features = bound_features();
    ML_CHECK(features.defined())
        << "TtConv: SetFeatures must be called before Forward";
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
  Variable b4 = autograd::Reshape(tt_out_, Shape{out, r, 1, 1});
  Variable d = autograd::Conv2d(h, b4, Variable(), pointwise);
  return autograd::Add(y, autograd::Scale(d, scaling_));
}

int64_t TtConv::AdapterParamCount() const {
  int64_t n = tt_channel_.numel() + tt_spatial_.numel() + tt_out_.numel();
  if (meta_) n += mapping_->ParamCount();
  return n;
}

Tensor TtConv::DeltaWeightImpl(const Tensor* seed_c) const {
  const int64_t rk = options_.rank;
  const int64_t in = base_->in_channels();
  const int64_t out = base_->out_channels();
  const int64_t k = base_->geom().kernel_h;
  Tensor wdown =
      Matmul(tt_channel_.value().Reshape(Shape{rk * in, rk}),
             tt_spatial_.value())
          .Reshape(Shape{rk, in * k * k});
  // tt_out_ is [O, R] with the seed living on R: fold it into the columns.
  Tensor m = tt_out_.value().Clone();
  if (seed_c != nullptr) {
    for (int64_t o = 0; o < out; ++o) {
      for (int64_t rr = 0; rr < rk; ++rr) {
        m.flat(o * rk + rr) *= seed_c->flat(rr);
      }
    }
  }
  Tensor delta{Shape{out, in, k, k}};
  const float* pa = wdown.data();  // [R, I·K·K]
  const float* pm = m.data();      // [O, R]
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

Tensor TtConv::DeltaWeight() const { return DeltaWeightImpl(nullptr); }

Tensor TtConv::DeltaWeightFor(const Tensor& seed_c) const {
  ML_CHECK_EQ(seed_c.rank(), 1);
  ML_CHECK_EQ(seed_c.dim(0), options_.rank);
  return DeltaWeightImpl(&seed_c);
}

}  // namespace core
}  // namespace metalora
