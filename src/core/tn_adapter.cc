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

TnAdapter::Operands TnAdapter::StackBranches(const Variable& features,
                                             int64_t rows) {
  const int64_t r = chain_.rank;
  // The branches in the graph, and W [·, E'] over them: one row per bound
  // task id (task mask) or feature row (gate), or a single row (scales).
  // AlignSeedToRows below repeats them to x's rows: a layer that runs on
  // [B·S, D] token rows (the Mixer's) sees each sample's row S times.
  std::vector<int> in_graph;
  Variable w;
  if (chain_.weight == BranchWeight::kTaskMask) {
    const std::vector<int64_t>& ids = bound_task_ids();
    const int64_t bound = static_cast<int64_t>(ids.size());
    ML_CHECK(bound > 0 && rows % bound == 0)
        << "oracle-routed Multi-LoRA needs SetTaskIds with the batch's "
           "task ids: x has "
        << rows << " rows, " << bound << " ids are bound";
    for (int e = 0; e < chain_.branches; ++e) {
      if (std::find(ids.begin(), ids.end(), e) != ids.end()) {
        in_graph.push_back(e);
      }
    }
    if (in_graph.empty()) return {};
    const int64_t cols = static_cast<int64_t>(in_graph.size());
    Tensor mask{Shape{bound, cols}};
    for (int64_t i = 0; i < bound; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        if (ids[static_cast<size_t>(i)] == in_graph[static_cast<size_t>(j)]) {
          mask.flat(i * cols + j) = 1.0f;
        }
      }
    }
    w = Variable(std::move(mask), /*requires_grad=*/false);
  } else {
    for (int e = 0; e < chain_.branches; ++e) in_graph.push_back(e);
    if (chain_.weight == BranchWeight::kGate) {
      w = autograd::SoftmaxLastDim(gate_->Forward(features));
    } else {
      std::vector<Variable> scales;
      for (const Factors& f : branches_) scales.push_back(f.scale);
      w = autograd::Reshape(autograd::ConcatRows(scales),
                            Shape{1, chain_.branches});
    }
  }
  const int64_t n = static_cast<int64_t>(in_graph.size());
  // P [E', E'·R]: row e is 1 over branch e's rank channels.
  Tensor expand{Shape{n, n * r}};
  for (int64_t e = 0; e < n; ++e) {
    for (int64_t j = 0; j < r; ++j) expand.flat(e * n * r + e * r + j) = 1.0f;
  }
  std::vector<Variable> downs, ups;
  for (int e : in_graph) {
    downs.push_back(branches_[static_cast<size_t>(e)].down);
    ups.push_back(branches_[static_cast<size_t>(e)].up);
  }
  Operands ops;
  ops.seed = AlignSeedToRows(
      autograd::Matmul(w, Variable(std::move(expand), /*requires_grad=*/false)),
      rows);
  ops.down = autograd::ConcatRows(downs);
  // Column block e of U is U_e: [E'·O, R] → [E', O, R] → [O, E', R].
  ops.up = autograd::Reshape(
      autograd::Permute(
          autograd::Reshape(autograd::ConcatRows(ups), Shape{n, out_, r}),
          {1, 0, 2}),
      Shape{out_, n * r});
  return ops;
}

Variable TnAdapter::LinearDelta(const Variable& x, const Operands& ops) const {
  const int64_t r = chain_.rank, n = x.dim(0);
  Variable h = chain_.tt_down || chain_.generated_up
                   ? autograd::Matmul(x, ops.down)
                   : autograd::Linear(x, ops.down, Variable());
  if (chain_.generated_up) {
    // d[n, o] = Σ_q h[n, q]·M[n, q, o].
    Variable u = autograd::Reshape(h, Shape{n, 1, r * r});
    return autograd::Reshape(
        autograd::BatchedMatmul(u, AlignSeedToRows(ops.up, n)),
        Shape{n, out_});
  }
  if (ops.seed.defined()) h = autograd::Mul(h, AlignSeedToRows(ops.seed, n));
  if (chain_.core) h = autograd::Linear(h, core_, Variable());
  if (chain_.tt_up) {
    // U[r0, (p, q)] = Σ_r1 G3[r0, p, r1]·G4[r1, q]; col (p, q) is the
    // o1-major flat output index.
    return autograd::Matmul(
        h, autograd::Reshape(
               autograd::Matmul(autograd::Reshape(ops.up, Shape{r * o1_, r}),
                                branches_[0].up_tt),
               Shape{r, out_}));
  }
  return autograd::Linear(h, ops.up, Variable());
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
  // The linear lowering runs the base layer ahead of the chain.
  const Variable base_y = conv_ == nullptr ? base_->Forward(x) : Variable();
  Operands ops;
  if (chain_.weight == BranchWeight::kNone) {
    const Factors& f = branches_[0];
    const Variable gen =
        mapping_ != nullptr ? Generated(f, features) : Variable();
    ops.seed = chain_.seeded ? gen : Variable();
    ops.down = DownWeight(f);
    ops.up = chain_.generated_up ? gen : f.up;
  } else {
    ops = StackBranches(features, x.dim(0));
    if (!ops.down.defined()) {  // no branch has a row in the batch
      return conv_ == nullptr ? base_y : base_->Forward(x);
    }
  }
  if (conv_ != nullptr) {
    // The base conv and D share one GEMM per sample, and the tail runs
    // inside the op.
    return autograd::AdaptedConv2d(x, conv_->weight(), conv_->bias(),
                                   ops.down, ops.seed, core_, ops.up,
                                   scaling_, conv_->geom());
  }
  return autograd::Add(base_y,
                       autograd::Scale(LinearDelta(x, ops), scaling_));
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
