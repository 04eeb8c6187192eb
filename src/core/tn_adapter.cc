#include "core/tn_adapter.h"

#include <cmath>
#include <utility>

#include "autograd/ops.h"
#include "tensor/matmul.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"
#include "tn/tn_cost.h"

namespace metalora {
namespace core {

namespace {

// Scales column j of m [rows, R] by c[j]: the seed folded into the factor
// that follows it in the chain.
Tensor ScaleColumns(const Tensor& m, const Tensor& c) {
  Tensor out = m.Clone();
  const int64_t cols = c.numel(), rows = m.numel() / cols;
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) out.flat(i * cols + j) *= c.flat(j);
  }
  return out;
}

}  // namespace

TnAdapter::Chain TnAdapter::ChainFor(AdapterKind kind, bool conv) {
  Chain c;
  switch (kind) {
    case AdapterKind::kLora:
      break;
    case AdapterKind::kMetaLoraCp:
      c.seeded = true;
      break;
    case AdapterKind::kMetaLotr:
      c.seeded = true;
      [[fallthrough]];
    case AdapterKind::kLotr:
      c.core = c.shared = true;
      break;
    case AdapterKind::kMetaTt:
      c.seeded = true;
      [[fallthrough]];
    case AdapterKind::kTt:
      // The conv lowering TT-factorizes only the K×K down kernel; its 1×1
      // up factor is already thin.
      c.tt_down = true;
      c.tt_up = !conv;
      break;
    default:
      ML_CHECK(false) << AdapterKindName(kind) << " is not a chain adapter";
  }
  return c;
}

bool TnAdapter::SharesFactors(AdapterKind kind) {
  return kind == AdapterKind::kLotr || kind == AdapterKind::kMetaLotr;
}

TnAdapter::TnAdapter(std::unique_ptr<nn::Linear> base,
                     const AdapterOptions& options,
                     const SharedFactors* share)
    : Adapter("TnAdapter", options) {
  ML_CHECK(base != nullptr);
  linear_ = base.get();
  in_ = base->in_features();
  out_ = base->out_features();
  Init(std::move(base), share);
}

TnAdapter::TnAdapter(std::unique_ptr<nn::Conv2d> base,
                     const AdapterOptions& options,
                     const SharedFactors* share)
    : Adapter("TnAdapter", options) {
  ML_CHECK(base != nullptr);
  conv_ = base.get();
  in_ = base->in_channels();
  out_ = base->out_channels();
  k_ = base->geom().kernel_h;
  ML_CHECK_EQ(base->geom().kernel_w, k_) << "TnAdapter expects square kernels";
  Init(std::move(base), share);
}

void TnAdapter::Init(std::unique_ptr<nn::Module> base,
                     const SharedFactors* share) {
  ML_CHECK_GT(options_.rank, 0);
  chain_ = ChainFor(options_.kind, conv_ != nullptr);
  const int64_t r = options_.rank;
  const int64_t fan_in = in_ * k_ * k_;
  const Shape down_shape =
      conv_ != nullptr ? Shape{r, in_, k_, k_} : Shape{r, in_};
  scaling_ = options_.alpha / static_cast<float>(r);
  owns_shared_ = share == nullptr;
  ML_CHECK(owns_shared_ || chain_.shared)
      << AdapterKindName(options_.kind) << " shares no factors";
  if (chain_.tt_up) {
    o1_ = tn::TtSplitDim(out_);
  }
  if (chain_.tt_down && conv_ == nullptr) {
    i2_ = in_ / tn::TtSplitDim(in_);
  }

  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options_.seed);
  if (!owns_shared_) {
    ML_CHECK(share->down.shape() == down_shape);
    ML_CHECK(share->up.shape() == Shape({out_, r}));
    down_ = share->down;  // aliases the owner's storage, unregistered here
    up_ = share->up;
  } else {
    if (chain_.tt_down) {
      // var(D) = R · var(first) · var(second) = 2 / fan_in: Kaiming over
      // the filter, like the dense D.
      const float std = std::pow(2.0f / static_cast<float>(fan_in), 0.25f);
      Tensor first{conv_ != nullptr ? Shape{r, in_, r}
                                    : Shape{in_ / i2_, r}};
      FillNormal(first, rng, 0.0f, std);
      down_ = RegisterParameter(conv_ != nullptr ? "tt_channel" : "tt_in_a",
                                std::move(first));
      Tensor second{conv_ != nullptr ? Shape{r, k_ * k_} : Shape{r, i2_, r}};
      FillNormal(second, rng, 0.0f, std / std::sqrt(static_cast<float>(r)));
      down_tt_ = RegisterParameter(
          conv_ != nullptr ? "tt_spatial" : "tt_in_b", std::move(second));
    } else {
      Tensor a{down_shape};
      KaimingNormal(a, rng, fan_in);
      down_ = RegisterParameter(chain_.core ? "lotr_down" : "lora_a",
                                std::move(a));
    }
    if (chain_.tt_up) {
      Tensor first{Shape{r, o1_, r}};
      FillNormal(first, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(r)));
      up_ = RegisterParameter("tt_out_a", std::move(first));
      up_tt_ = RegisterParameter("tt_out_b",
                                 Tensor::Zeros(Shape{r, out_ / o1_}));
    } else if (chain_.core) {
      Tensor b{Shape{out_, r}};
      FillNormal(b, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(r)));
      up_ = RegisterParameter("lotr_up", std::move(b));
    } else {
      up_ = RegisterParameter(chain_.tt_down ? "tt_out" : "lora_b",
                              Tensor::Zeros(Shape{out_, r}));
    }
  }
  if (chain_.core) {
    core_ = RegisterParameter("lotr_core", Tensor::Zeros(Shape{r, r}));
  }
  if (chain_.seeded) {
    ML_CHECK_GT(options_.feature_dim, 0)
        << AdapterKindName(options_.kind)
        << " needs options.feature_dim (the extractor embedding size)";
    mapping_ = RegisterModule(
        "mapping", std::make_unique<MappingNet>(options_.feature_dim,
                                                options_.mapping_hidden, r,
                                                SeedShape::kVector, rng));
    cache_ = std::make_unique<ConditioningCache>();
    cache_salt_ = NextAdapterCacheSalt();
  }
}

Variable TnAdapter::DownWeight() const {
  const int64_t r = options_.rank;
  if (!chain_.tt_down) return down_;
  if (conv_ != nullptr) {
    // w[r0, i, kh, kw] = Σ_r1 Gc[r0, i, r1]·Gs[r1, kh·K + kw]: the TT
    // contraction lands directly in conv weight layout [R, I, K, K].
    return autograd::Reshape(
        autograd::Matmul(autograd::Reshape(down_, Shape{r * in_, r}),
                         down_tt_),
        Shape{r, in_, k_, k_});
  }
  // D[(a, b), c] = Σ_r G1[a, r]·G2[r, b, c]; row (a, b) is exactly the
  // i1-major flat input index, so no permute is needed.
  return autograd::Reshape(
      autograd::Matmul(down_, autograd::Reshape(down_tt_, Shape{r, i2_ * r})),
      Shape{in_, r});
}

Variable TnAdapter::MixRank(const Variable& h, const Variable& w) const {
  if (conv_ == nullptr) return autograd::Linear(h, w, Variable());
  Variable w4 = autograd::Reshape(w, Shape{w.dim(0), w.dim(1), 1, 1});
  return autograd::Conv2d(h, w4, Variable(), ConvGeom::Pointwise());
}

Variable TnAdapter::Forward(const Variable& x) {
  Variable features;
  if (chain_.seeded) {
    features = bound_features();
    ML_CHECK(features.defined())
        << "TnAdapter (" << AdapterKindName(options_.kind)
        << "): SetFeatures must be called before Forward";
    if (conv_ != nullptr) {
      ML_CHECK_EQ(features.dim(0), x.dim(0))
          << "conditioning features batch size mismatch";
    }
  }
  Variable y = base_->Forward(x);
  if (merged_) return y;

  Variable h;  // [N, R] or [N, R, H', W']
  if (conv_ != nullptr) {
    h = autograd::Conv2d(x, DownWeight(), Variable(), conv_->geom());
  } else if (chain_.tt_down) {
    h = autograd::Matmul(x, DownWeight());
  } else {
    h = autograd::Linear(x, down_, Variable());
  }
  if (chain_.seeded) {
    Variable seed = cache_->SeedOrCompute(
        cache_salt_, features,
        [&] { return mapping_->Forward(features); });  // [N, R]
    h = conv_ != nullptr ? autograd::ScaleChannels(h, seed)
                         : autograd::Mul(h, AlignSeedToRows(seed, x.dim(0)));
  }
  if (chain_.core) h = MixRank(h, core_);
  Variable d;
  if (chain_.tt_up) {
    // U[r0, (p, q)] = Σ_r1 G3[r0, p, r1]·G4[r1, q]; col (p, q) is the
    // o1-major flat output index.
    const int64_t r = options_.rank;
    d = autograd::Matmul(
        h, autograd::Reshape(
               autograd::Matmul(autograd::Reshape(up_, Shape{r * o1_, r}),
                                up_tt_),
               Shape{r, out_}));
  } else {
    d = MixRank(h, up_);
  }
  return autograd::Add(y, autograd::Scale(d, scaling_));
}

int64_t TnAdapter::AdapterParamCount() const {
  int64_t n = 0;
  for (const Variable* v : {&down_, &down_tt_, &up_, &up_tt_}) {
    if (owns_shared_ && v->defined()) n += v->numel();
  }
  if (chain_.core) n += core_.numel();
  if (mapping_ != nullptr) n += mapping_->ParamCount();
  return n;
}

Tensor TnAdapter::DownMatrix() const {
  const int64_t r = options_.rank;
  if (!chain_.tt_down) return down_.value().Reshape(Shape{r, in_ * k_ * k_});
  if (conv_ != nullptr) {
    return Matmul(down_.value().Reshape(Shape{r * in_, r}), down_tt_.value())
        .Reshape(Shape{r, in_ * k_ * k_});
  }
  return Transpose2D(
      Matmul(down_.value(), down_tt_.value().Reshape(Shape{r, i2_ * r}))
          .Reshape(Shape{in_, r}));
}

Tensor TnAdapter::UpMatrix() const {
  if (!chain_.tt_up) return up_.value();
  const int64_t r = options_.rank;
  return Transpose2D(
      Matmul(up_.value().Reshape(Shape{r * o1_, r}), up_tt_.value())
          .Reshape(Shape{r, out_}));
}

Tensor TnAdapter::DeltaWeight(const Tensor* seed) const {
  // M = U·G·diag(c) [O, R], with c folded into the columns of the factor
  // it precedes in the chain; then ΔW = scaling · M · D.
  Tensor m = UpMatrix();
  Tensor g = chain_.core ? core_.value() : Tensor();
  if (seed != nullptr) {
    ML_CHECK_EQ(seed->rank(), 1);
    ML_CHECK_EQ(seed->dim(0), options_.rank);
    if (chain_.core) {
      g = ScaleColumns(g, *seed);
    } else {
      m = ScaleColumns(m, *seed);
    }
  }
  if (chain_.core) m = Matmul(m, g);
  Tensor delta = Matmul(m, DownMatrix());  // [O, I·K·K]
  ScaleInPlace(delta, scaling_);
  return conv_ != nullptr ? delta.Reshape(Shape{out_, in_, k_, k_}) : delta;
}

void TnAdapter::Merge() {
  ML_CHECK(!chain_.seeded) << AdapterKindName(options_.kind)
                           << " generates ΔW per input and cannot merge";
  if (merged_) return;
  Variable& w = linear_ != nullptr ? linear_->weight() : conv_->weight();
  AddInPlace(w.mutable_value(), DeltaWeight());
  merged_ = true;
}

void TnAdapter::Unmerge() {
  if (!merged_) return;
  Tensor delta = DeltaWeight();
  ScaleInPlace(delta, -1.0f);
  Variable& w = linear_ != nullptr ? linear_->weight() : conv_->weight();
  AddInPlace(w.mutable_value(), delta);
  merged_ = false;
}

}  // namespace core
}  // namespace metalora
