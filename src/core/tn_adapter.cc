#include "core/tn_adapter.h"

#include <algorithm>
#include <cmath>
#include <string>
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

// Binary [N] mask selecting the samples of task `t`. Constant (no grad).
Variable TaskMask(const std::vector<int64_t>& task_ids, int64_t n, int t,
                  int64_t* count) {
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
  return Variable(std::move(mask), /*requires_grad=*/false);
}

// Differentiable column selection: weights[:, e] as a [N] vector, with
// gradient flowing back into the gate. Implemented as a matmul against a
// constant one-hot column.
Variable GateColumn(const Variable& weights, int e, int num_experts) {
  Tensor onehot{Shape{num_experts, 1}};
  onehot.flat(e) = 1.0f;
  Variable col = autograd::Matmul(
      weights, Variable(std::move(onehot), /*requires_grad=*/false));
  return autograd::Reshape(col, Shape{weights.dim(0)});
}

}  // namespace

TnAdapter::Chain TnAdapter::ChainFor(const AdapterOptions& options,
                                     bool conv) {
  Chain c;
  c.rank = options.rank;
  switch (options.kind) {
    case AdapterKind::kLora:
      break;
    case AdapterKind::kMetaLoraCp:
      c.seeded = true;
      break;
    case AdapterKind::kMetaLoraTr:
      c.generated_up = true;
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
    case AdapterKind::kMultiLora:
      ML_CHECK_GE(options.num_tasks, 1);
      ML_CHECK(options.multi_lora_mode == MultiLoraMode::kSum ||
               options.multi_lora_mode == MultiLoraMode::kOracleRouting)
          << "unknown multi_lora_mode";
      c.branches = options.num_tasks;
      c.weight = options.multi_lora_mode == MultiLoraMode::kSum
                     ? BranchWeight::kScale
                     : BranchWeight::kTaskMask;
      // The rank budget is split across branches, so total capacity stays
      // comparable to plain LoRA.
      c.rank = std::max<int64_t>(1, options.rank / options.num_tasks);
      break;
    case AdapterKind::kMoeLora:
      ML_CHECK_GE(options.num_tasks, 1);
      c.branches = options.num_tasks;
      c.weight = BranchWeight::kGate;
      break;
    default:
      ML_CHECK(false) << AdapterKindName(options.kind)
                      << " is not a chain adapter";
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
  chain_ = ChainFor(options_, conv_ != nullptr);
  scaling_ = options_.alpha / static_cast<float>(options_.rank);
  owns_shared_ = share == nullptr;
  ML_CHECK(owns_shared_ || chain_.shared)
      << AdapterKindName(options_.kind) << " shares no factors";
  if (chain_.tt_up) {
    o1_ = tn::TtSplitDim(out_);
  }
  if (chain_.tt_down && conv_ == nullptr) {
    i2_ = in_ / tn::TtSplitDim(in_);
  }
  const bool generates = chain_.seeded || chain_.generated_up;
  if (generates || chain_.weight == BranchWeight::kGate) {
    ML_CHECK_GT(options_.feature_dim, 0)
        << AdapterKindName(options_.kind)
        << " needs options.feature_dim (the extractor embedding size)";
  }

  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options_.seed);
  if (chain_.weight == BranchWeight::kGate) {
    gate_ = RegisterModule(
        "gate", std::make_unique<nn::Linear>(options_.feature_dim,
                                             chain_.branches, /*bias=*/true,
                                             rng));
  }
  branches_.resize(static_cast<size_t>(chain_.branches));
  for (int e = 0; e < chain_.branches; ++e) InitBranch(e, rng, share);
  const int64_t r = chain_.rank;
  if (chain_.core) {
    core_ = RegisterParameter("lotr_core", Tensor::Zeros(Shape{r, r}));
  }
  if (generates) {
    mapping_ = RegisterModule(
        "mapping",
        std::make_unique<MappingNet>(
            options_.feature_dim, options_.mapping_hidden, r,
            chain_.generated_up ? SeedShape::kMatrix : SeedShape::kVector,
            rng));
    cache_ = std::make_unique<ConditioningCache>();
    cache_salt_ = NextAdapterCacheSalt();
  }
}

void TnAdapter::InitBranch(int e, Rng& rng, const SharedFactors* share) {
  Factors& f = branches_[static_cast<size_t>(e)];
  const int64_t r = chain_.rank;
  const int64_t fan_in = in_ * k_ * k_;
  const Shape down_shape =
      conv_ != nullptr ? Shape{r, in_, k_, k_} : Shape{r, in_};
  // Branch sums number their factors: lora_a0, lora_b0, scale0, ...
  const std::string suffix =
      chain_.weight == BranchWeight::kNone ? "" : std::to_string(e);
  if (!owns_shared_) {
    ML_CHECK(share->down.shape() == down_shape);
    ML_CHECK(share->up.shape() == Shape({out_, r}));
    f.down = share->down;  // aliases the owner's storage, unregistered here
    f.up = share->up;
    return;
  }
  if (chain_.tt_down) {
    // var(D) = R · var(first) · var(second) = 2 / fan_in: Kaiming over
    // the filter, like the dense D.
    const float std = std::pow(2.0f / static_cast<float>(fan_in), 0.25f);
    Tensor first{conv_ != nullptr ? Shape{r, in_, r} : Shape{in_ / i2_, r}};
    FillNormal(first, rng, 0.0f, std);
    f.down = RegisterParameter(conv_ != nullptr ? "tt_channel" : "tt_in_a",
                               std::move(first));
    Tensor second{conv_ != nullptr ? Shape{r, k_ * k_} : Shape{r, i2_, r}};
    FillNormal(second, rng, 0.0f, std / std::sqrt(static_cast<float>(r)));
    f.down_tt = RegisterParameter(conv_ != nullptr ? "tt_spatial" : "tt_in_b",
                                  std::move(second));
  } else if (chain_.generated_up) {
    // D maps to the R² bond channels q = r0·R + r1, scaled so each has
    // O(1) entries. The linear lowering stores it as the ring core
    // [R, I, R].
    Tensor a{conv_ != nullptr ? Shape{r * r, in_, k_, k_} : Shape{r, in_, r}};
    FillNormal(a, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(fan_in)));
    f.down = RegisterParameter("core_a", std::move(a));
  } else {
    Tensor a{down_shape};
    KaimingNormal(a, rng, fan_in);
    f.down = RegisterParameter((chain_.core ? "lotr_down" : "lora_a") + suffix,
                               std::move(a));
  }
  if (chain_.tt_up) {
    Tensor first{Shape{r, o1_, r}};
    FillNormal(first, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(r)));
    f.up = RegisterParameter("tt_out_a", std::move(first));
    f.up_tt =
        RegisterParameter("tt_out_b", Tensor::Zeros(Shape{r, out_ / o1_}));
  } else if (chain_.core) {
    Tensor b{Shape{out_, r}};
    FillNormal(b, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(r)));
    f.up = RegisterParameter("lotr_up", std::move(b));
  } else if (chain_.generated_up) {
    f.up = RegisterParameter("core_b", Tensor::Zeros(Shape{r, out_, r}));
  } else {
    f.up = RegisterParameter((chain_.tt_down ? "tt_out" : "lora_b") + suffix,
                             Tensor::Zeros(Shape{out_, r}));
  }
  if (chain_.weight == BranchWeight::kScale) {
    f.scale = RegisterParameter("scale" + suffix, Tensor::Ones(Shape{1}));
  }
}

Variable TnAdapter::DownWeight(const Factors& f) const {
  const int64_t r = chain_.rank;
  if (chain_.generated_up && conv_ == nullptr) {
    // Row i, column q = r0·R + r1 holds core_a[r0, i, r1].
    return autograd::Reshape(autograd::Permute(f.down, {1, 0, 2}),
                             Shape{in_, r * r});
  }
  if (!chain_.tt_down) return f.down;
  if (conv_ != nullptr) {
    // w[r0, i, kh, kw] = Σ_r1 Gc[r0, i, r1]·Gs[r1, kh·K + kw]: the TT
    // contraction lands directly in conv weight layout [R, I, K, K].
    return autograd::Reshape(
        autograd::Matmul(autograd::Reshape(f.down, Shape{r * in_, r}),
                         f.down_tt),
        Shape{r, in_, k_, k_});
  }
  // D[(a, b), c] = Σ_r G1[a, r]·G2[r, b, c]; row (a, b) is exactly the
  // i1-major flat input index, so no permute is needed.
  return autograd::Reshape(
      autograd::Matmul(f.down,
                       autograd::Reshape(f.down_tt, Shape{r, i2_ * r})),
      Shape{in_, r});
}

Variable TnAdapter::MixRank(const Variable& h, const Variable& w) const {
  if (conv_ == nullptr) return autograd::Linear(h, w, Variable());
  Variable w4 = autograd::Reshape(w, Shape{w.dim(0), w.dim(1), 1, 1});
  return autograd::Conv2d(h, w4, Variable(), ConvGeom::Pointwise());
}

Variable TnAdapter::Recovery(const Variable& core_b, const Variable& c) const {
  const int64_t nf = c.dim(0), r = chain_.rank;
  Variable c_flat = autograd::Reshape(autograd::Permute(c, {0, 2, 1}),
                                      Shape{nf * r, r});  // [(n, r0), r2]
  Variable b_mat = autograd::Reshape(autograd::Permute(core_b, {2, 0, 1}),
                                     Shape{r, r * out_});  // [r2, (r1, o)]
  Variable t = autograd::Matmul(c_flat, b_mat);           // [(n, r0), (r1, o)]
  if (conv_ == nullptr) return autograd::Reshape(t, Shape{nf, r * r, out_});
  t = autograd::Permute(autograd::Reshape(t, Shape{nf, r, r, out_}),
                        {0, 3, 1, 2});  // [n, o, r0, r1]
  return autograd::Reshape(t, Shape{nf, out_, r * r});
}

Variable TnAdapter::Generated(const Factors& f, const Variable& features) {
  return cache_->GetOrCompute(cache_salt_, features, [&] {
    Variable c = mapping_->Forward(features);
    return chain_.generated_up ? Recovery(f.up, c) : c;
  });
}

Variable TnAdapter::BranchDelta(const Factors& f, const Variable& x,
                                const Variable& features) {
  const int64_t r = chain_.rank;
  const Variable gen =
      mapping_ != nullptr ? Generated(f, features) : Variable();
  Variable h;  // [N, R], or [N, R, H', W'] in a conv branch sum
  if (conv_ != nullptr) {
    h = autograd::Conv2d(x, DownWeight(f), Variable(), conv_->geom());
  } else if (chain_.tt_down || chain_.generated_up) {
    h = autograd::Matmul(x, DownWeight(f));
  } else {
    h = autograd::Linear(x, f.down, Variable());
  }
  if (chain_.generated_up) {
    // d[n, o] = Σ_q h[n, q]·M[n, q, o].
    const int64_t n = x.dim(0);
    Variable u = autograd::Reshape(h, Shape{n, 1, r * r});
    return autograd::Reshape(
        autograd::BatchedMatmul(u, AlignSeedToRows(gen, n)), Shape{n, out_});
  }
  if (chain_.seeded) h = autograd::Mul(h, AlignSeedToRows(gen, x.dim(0)));
  if (chain_.core) h = MixRank(h, core_);
  if (chain_.tt_up) {
    // U[r0, (p, q)] = Σ_r1 G3[r0, p, r1]·G4[r1, q]; col (p, q) is the
    // o1-major flat output index.
    return autograd::Matmul(
        h, autograd::Reshape(
               autograd::Matmul(autograd::Reshape(f.up, Shape{r * o1_, r}),
                                f.up_tt),
               Shape{r, out_}));
  }
  return MixRank(h, f.up);
}

Variable TnAdapter::Forward(const Variable& x) {
  Variable features;
  if (mapping_ != nullptr || gate_ != nullptr) {
    features = bound_features();
    ML_CHECK(features.defined())
        << "TnAdapter (" << AdapterKindName(options_.kind)
        << "): SetFeatures must be called before Forward";
    if (conv_ != nullptr) {
      ML_CHECK_EQ(features.dim(0), x.dim(0))
          << "conditioning features batch size mismatch";
    }
  }
  if (merged_) return base_->Forward(x);
  if (conv_ != nullptr && chain_.weight == BranchWeight::kNone) {
    // A single conv chain is one node: the base conv and D share one GEMM
    // per sample, and the tail runs inside the op.
    const Factors& f = branches_[0];
    const Variable gen =
        mapping_ != nullptr ? Generated(f, features) : Variable();
    return autograd::AdaptedConv2d(
        x, conv_->weight(), conv_->bias(), DownWeight(f),
        chain_.seeded ? gen : Variable(), core_,
        chain_.generated_up ? gen : f.up, scaling_, conv_->geom());
  }
  Variable y = base_->Forward(x);

  Variable gate;  // [N, E]
  if (chain_.weight == BranchWeight::kGate) {
    gate = autograd::SoftmaxLastDim(gate_->Forward(features));
    if (conv_ == nullptr) gate = AlignSeedToRows(gate, x.dim(0));
  }
  for (int e = 0; e < chain_.branches; ++e) {
    Variable mask;
    if (chain_.weight == BranchWeight::kTaskMask) {
      int64_t count = 0;
      mask = TaskMask(bound_task_ids(), x.dim(0), e, &count);
      if (count == 0) continue;
    }
    const Factors& f = branches_[static_cast<size_t>(e)];
    Variable d = BranchDelta(f, x, features);
    switch (chain_.weight) {
      case BranchWeight::kNone:
        break;
      case BranchWeight::kScale:
        d = autograd::MulScalarVar(d, f.scale);
        break;
      case BranchWeight::kTaskMask:
        d = autograd::ScaleRows(d, mask);
        break;
      case BranchWeight::kGate:
        d = autograd::ScaleRows(d, GateColumn(gate, e, chain_.branches));
        break;
    }
    y = autograd::Add(y, autograd::Scale(d, scaling_));
  }
  return y;
}

int64_t TnAdapter::AdapterParamCount() const {
  int64_t n = 0;
  for (const Factors& f : branches_) {
    for (const Variable* v : {&f.down, &f.down_tt, &f.up, &f.up_tt}) {
      if (owns_shared_ && v->defined()) n += v->numel();
    }
    if (f.scale.defined()) n += f.scale.numel();
  }
  if (chain_.core) n += core_.numel();
  if (mapping_ != nullptr) n += mapping_->ParamCount();
  if (gate_ != nullptr) n += gate_->ParamCount();
  return n;
}

Tensor TnAdapter::DownMatrix() const {
  const Factors& f = branches_[0];
  const int64_t r = chain_.rank;
  if (chain_.generated_up && conv_ == nullptr) {
    return Permute(f.down.value(), {0, 2, 1}).Reshape(Shape{r * r, in_});
  }
  if (!chain_.tt_down) {
    return f.down.value().Reshape(Shape{f.down.dim(0), in_ * k_ * k_});
  }
  if (conv_ != nullptr) {
    return Matmul(f.down.value().Reshape(Shape{r * in_, r}),
                  f.down_tt.value())
        .Reshape(Shape{r, in_ * k_ * k_});
  }
  return Transpose2D(
      Matmul(f.down.value(), f.down_tt.value().Reshape(Shape{r, i2_ * r}))
          .Reshape(Shape{in_, r}));
}

Tensor TnAdapter::UpMatrix() const {
  const Factors& f = branches_[0];
  if (!chain_.tt_up) return f.up.value();
  const int64_t r = chain_.rank;
  return Transpose2D(
      Matmul(f.up.value().Reshape(Shape{r * o1_, r}), f.up_tt.value())
          .Reshape(Shape{r, out_}));
}

Tensor TnAdapter::DeltaWeight(const Tensor* seed) const {
  ML_CHECK(chain_.weight == BranchWeight::kNone)
      << AdapterKindName(options_.kind) << " sums weighted branches";
  const int64_t r = chain_.rank;
  // M = U·G·diag(c) [O, R], with c folded into the columns of the factor
  // it precedes in the chain (TR: the recovery Mᵀ [O, R²] of the core C);
  // then ΔW = scaling · M · D.
  Tensor m;
  if (chain_.generated_up) {
    ML_CHECK(seed != nullptr) << "TR's ΔW needs a generated ring core";
    ML_CHECK_EQ(seed->rank(), 2);
    ML_CHECK_EQ(seed->dim(0), r);
    ML_CHECK_EQ(seed->dim(1), r);
    const Tensor b_mat = Permute(branches_[0].up.value(), {2, 0, 1})
                             .Reshape(Shape{r, r * out_});  // [r2, (r1, o)]
    m = Transpose2D(
        Matmul(Transpose2D(*seed), b_mat).Reshape(Shape{r * r, out_}));
  } else {
    m = UpMatrix();
    Tensor g = chain_.core ? core_.value() : Tensor();
    if (seed != nullptr) {
      ML_CHECK_EQ(seed->rank(), 1);
      ML_CHECK_EQ(seed->dim(0), r);
      if (chain_.core) {
        g = ScaleColumns(g, *seed);
      } else {
        m = ScaleColumns(m, *seed);
      }
    }
    if (chain_.core) m = Matmul(m, g);
  }
  Tensor delta = Matmul(m, DownMatrix());  // [O, I·K·K]
  ScaleInPlace(delta, scaling_);
  return conv_ != nullptr ? delta.Reshape(Shape{out_, in_, k_, k_}) : delta;
}

void TnAdapter::Merge() {
  ML_CHECK(mapping_ == nullptr && chain_.weight == BranchWeight::kNone)
      << AdapterKindName(options_.kind)
      << " cannot merge: it generates ΔW per input or sums weighted branches";
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
