// core::TnAdapter over one case table: every chain family (LoRA,
// MetaLoRA-CP, LoTR owner and member, Meta-LoTR, TT, Meta-TT, MetaLoRA-TR,
// Multi-LoRA sum and oracle routing, MoE-LoRA) × both lowerings (linear,
// conv).
//
// Bit identity: a test-local reference replays each family's forward op
// sequence from the adapter's own parameters (looked up by StateDict key),
// and redraws the fresh-init state from Rng(seed) in the family's draw
// order. Forward output, input and parameter gradients, the cold and warm
// no-grad outputs (conditioning-cache miss and hit) and the fresh StateDict
// must match byte for byte. A branch sum's op sequence is the stacked
// chain; its per-branch sum is replayed as well and must match within
// kBranchSumTol.
//
// Properties: zero-init start point, factored forward == materialized ΔW
// (per sample for generated kinds), AdapterParamCount == the tn_cost closed
// forms, gradients == finite differences, SetFeatures / batch-size death
// tests, Merge round trips, and LoTR share aliasing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "autograd/runtime_context.h"
#include "common/rng.h"
#include "core/tn_adapter.h"
#include "tensor/autocast.h"
#include "tensor/conv_ops.h"
#include "tensor/conv_thin.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"
#include "tn/tn_cost.h"

namespace metalora {
namespace core {
namespace {

constexpr int64_t kRank = 3;
constexpr int64_t kFeatDim = 5;
constexpr int64_t kHidden = 4;
// Scaling alpha/R = 5/3 is not a power of two, so a dropped or reordered
// scale cannot hide in the bytes.
constexpr float kAlpha = 5.0f;
// Linear base: I = 6 = 2·3, O = 4 = 2·2 (TT mode splits). Conv base:
// 2 → 4 channels, 3×3, stride 1, padding 1.
constexpr int64_t kIn = 6, kOut = 4;
constexpr int64_t kInCh = 2, kOutCh = 4, kKernel = 3;
// Branches of the Multi-LoRA and MoE-LoRA cases. Multi-LoRA splits the
// rank budget: each branch has rank max(1, kRank / kTasks).
constexpr int kTasks = 2;
constexpr int64_t kBranchRank = kRank / kTasks;
// The stacked chain contracts all branches' rank channels in one sum, the
// per-branch replay adds one delta per branch: the two round differently.
constexpr float kBranchSumTol = 1e-5f;

enum class Family { kLora, kCp, kLotrOwner, kLotrMember, kMetaLotr, kTt,
                    kMetaTt, kTr, kMultiSum, kMultiOracle, kMoe };

struct Case {
  Family family;
  bool conv;
};

AdapterKind KindOf(Family f) {
  switch (f) {
    case Family::kLora: return AdapterKind::kLora;
    case Family::kCp: return AdapterKind::kMetaLoraCp;
    case Family::kLotrOwner:
    case Family::kLotrMember: return AdapterKind::kLotr;
    case Family::kMetaLotr: return AdapterKind::kMetaLotr;
    case Family::kTt: return AdapterKind::kTt;
    case Family::kMetaTt: return AdapterKind::kMetaTt;
    case Family::kTr: return AdapterKind::kMetaLoraTr;
    case Family::kMultiSum:
    case Family::kMultiOracle: return AdapterKind::kMultiLora;
    case Family::kMoe: return AdapterKind::kMoeLora;
  }
  return AdapterKind::kNone;
}

/// A generated diagonal seed c.
bool Seeded(Family f) {
  return f == Family::kCp || f == Family::kMetaLotr || f == Family::kMetaTt;
}

/// A mapping net, and with it a conditioning cache.
bool Generates(Family f) { return Seeded(f) || f == Family::kTr; }

/// Forward needs SetFeatures.
bool Conditioned(Family f) { return Generates(f) || f == Family::kMoe; }

/// A weighted sum of kTasks branches.
bool Branched(Family f) {
  return f == Family::kMultiSum || f == Family::kMultiOracle ||
         f == Family::kMoe;
}

/// The rank of one branch: Multi-LoRA splits the budget, MoE does not.
int64_t BranchRank(Family f) {
  return f == Family::kMoe ? kRank : kBranchRank;
}

bool Lotr(Family f) {
  return f == Family::kLotrOwner || f == Family::kLotrMember ||
         f == Family::kMetaLotr;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  static const char* const kNames[] = {
      "Lora",   "MetaLoraCp", "LotrOwner", "LotrMember",  "MetaLotr", "Tt",
      "MetaTt", "MetaLoraTr", "MultiSum",  "MultiOracle", "Moe"};
  return std::string(kNames[static_cast<int>(info.param.family)]) +
         (info.param.conv ? "_conv" : "_linear");
}

AdapterOptions Opts(const Case& c, uint64_t seed = 11) {
  AdapterOptions o;
  o.kind = KindOf(c.family);
  o.rank = kRank;
  o.alpha = kAlpha;
  o.feature_dim = kFeatDim;
  o.mapping_hidden = kHidden;
  o.num_tasks = kTasks;
  if (c.family == Family::kMultiOracle) {
    o.multi_lora_mode = MultiLoraMode::kOracleRouting;
  }
  o.seed = seed;
  return o;
}

std::unique_ptr<nn::Linear> BaseLinear() {
  Rng rng(2);
  return std::make_unique<nn::Linear>(kIn, kOut, /*bias=*/true, rng);
}

std::unique_ptr<nn::Conv2d> BaseConv() {
  Rng rng(2);
  return std::make_unique<nn::Conv2d>(kInCh, kOutCh, kKernel, 1, 1,
                                      /*bias=*/false, rng);
}

std::unique_ptr<TnAdapter> Make(const Case& c, uint64_t seed,
                                const TnAdapter::SharedFactors* share) {
  if (c.conv) {
    return std::make_unique<TnAdapter>(BaseConv(), Opts(c, seed), share);
  }
  return std::make_unique<TnAdapter>(BaseLinear(), Opts(c, seed), share);
}

/// The adapter under test and, for a LoTR member, the group owner that
/// registered the shared factors.
struct Built {
  std::unique_ptr<TnAdapter> owner;
  std::unique_ptr<TnAdapter> adapter;

  /// The module whose registry holds `name`: shared LoTR factors live on
  /// the owner.
  nn::Module& Holder(const std::string& name) {
    if (owner != nullptr && (name == "lotr_down" || name == "lotr_up")) {
      return *owner;
    }
    return *adapter;
  }
};

Built Build(const Case& c) {
  Built b;
  if (c.family == Family::kLotrMember) {
    b.owner = Make(c, 11, nullptr);
    const TnAdapter::SharedFactors share = b.owner->share();
    b.adapter = Make(c, 12, &share);
  } else {
    b.adapter = Make(c, 11, nullptr);
  }
  return b;
}

Variable Param(nn::Module& m, const std::string& name) {
  for (auto& np : m.NamedParameters()) {
    if (np.name == name) return *np.variable;
  }
  ADD_FAILURE() << "parameter " << name << " not found";
  return Variable();
}

/// Moves adapter parameters (never the frozen base) off their init, so
/// zero-initialized factors cannot hide a wrong contraction. The mapping
/// net is left at its init when `mapping` is false.
void Perturb(nn::Module& m, uint64_t seed, float stddev, bool mapping = true) {
  Rng rng(seed);
  for (auto& np : m.NamedParameters()) {
    if (np.name.rfind("base/", 0) == 0) continue;
    if (!mapping && np.name.rfind("mapping/", 0) == 0) continue;
    Tensor noise = RandomNormal(np.variable->value().shape(), rng, 0.0f,
                                stddev);
    AddInPlace(np.variable->mutable_value(), noise);
  }
}

void PerturbAll(Built& b, float stddev, bool mapping = true) {
  if (b.owner != nullptr) Perturb(*b.owner, 41, stddev, mapping);
  Perturb(*b.adapter, 43, stddev, mapping);
}

bool BytesEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

Tensor Input(const Case& c, int64_t n, uint64_t seed) {
  Rng rng(seed);
  return c.conv ? RandomUniform(Shape{n, kInCh, 5, 5}, rng, -1.0f, 1.0f)
                : RandomUniform(Shape{n, kIn}, rng, -1.0f, 1.0f);
}

Variable Features(int64_t n, uint64_t seed) {
  Rng rng(seed);
  return Variable(RandomNormal(Shape{n, kFeatDim}, rng), false);
}

/// Binds the features and, for oracle routing, task ids alternating over
/// the `rows` rows of x.
void Bind(TnAdapter& a, const Variable& features, int64_t rows) {
  a.SetFeatures(features);
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < rows; ++i) ids.push_back(i % kTasks);
  a.SetTaskIds(ids);
}

// ---------------------------------------------------------------------------
// The reference: each family's forward op sequence, replayed.
// ---------------------------------------------------------------------------

const ConvGeom kGeom{kKernel, kKernel, 1, 1};

ConvGeom Pointwise() {
  ConvGeom pw;
  pw.kernel_h = 1;
  pw.kernel_w = 1;
  return pw;
}

/// Where a conv chain's op sequence meets the adapter's stacked GEMM: the
/// base conv's output y and the down conv's output h are cut into leaves,
/// so after backward their gradients are the two row blocks the stacked
/// input-gradient GEMM contracts with [W; D]ᵀ. `down` is D as the replay
/// used it.
struct ConvTap {
  Variable y, h;
  Tensor down;

  static Variable Cut(const Variable& v, Variable* leaf) {
    *leaf = Variable(v.value().Clone(), /*requires_grad=*/true);
    return *leaf;
  }
};

/// MetaLoRA-TR's delta as the deleted MetaLoraTr{Linear,Conv} ran it: the
/// recovery weights from the generated ring core, then the core_a
/// projection, then the per-sample bond contraction.
Variable ReplayTr(const Case& c, TnAdapter& a, const Variable& x,
                  const Variable& features, ConvTap* tap) {
  auto p = [&](const std::string& name) { return Param(a, name); };
  const int64_t r = kRank, n = x.dim(0);
  const int64_t out = c.conv ? kOutCh : kOut;
  Variable core_c = a.mapping_net()->Forward(features);  // [N_f, r2, r0]
  const int64_t nf = core_c.dim(0);
  Variable c_flat = autograd::Reshape(autograd::Permute(core_c, {0, 2, 1}),
                                      Shape{nf * r, r});
  Variable b_mat = autograd::Reshape(
      autograd::Permute(p("core_b"), {2, 0, 1}), Shape{r, r * out});
  Variable t = autograd::Matmul(c_flat, b_mat);
  if (c.conv) {
    Variable w2 = autograd::Reshape(
        autograd::Permute(autograd::Reshape(t, Shape{nf, r, r, out}),
                          {0, 3, 1, 2}),
        Shape{nf, out, r * r});
    Variable u = autograd::Conv2d(x, p("core_a"), Variable(), kGeom);
    if (tap != nullptr) {
      tap->down = p("core_a").value();
      u = ConvTap::Cut(u, &tap->h);
    }
    return autograd::PerSamplePointwiseConv(u, w2);
  }
  Variable m = autograd::Reshape(t, Shape{nf, r * r, out});
  Variable a_mat = autograd::Reshape(
      autograd::Permute(p("core_a"), {1, 0, 2}), Shape{kIn, r * r});
  Variable u =
      autograd::Reshape(autograd::Matmul(x, a_mat), Shape{n, 1, r * r});
  Variable d = autograd::BatchedMatmul(
      u, autograd::RepeatRowsInterleaved(m, n / nf));
  return autograd::Reshape(d, Shape{n, out});
}

/// `w` ([1] or [N]) broadcast over `shape` ([N, ...]) through the graph.
Variable Broadcast(const Variable& w, const Shape& shape) {
  const int64_t m = w.numel();
  return autograd::Reshape(
      autograd::RepeatRowsInterleaved(autograd::Reshape(w, Shape{m, 1}),
                                      shape.numel() / m),
      shape);
}

/// The branch sum as the deleted MultiLora{Linear,Conv} and
/// MoeLora{Linear,Conv} ran it: each branch's LoRA delta, weighted, added
/// to y in branch order. The independent reference for the stacked chain.
Variable ReplayBranches(const Case& c, TnAdapter& a, const Variable& x,
                        const Variable& features, Variable y) {
  auto p = [&](const std::string& name) { return Param(a, name); };
  const float scaling = kAlpha / kRank;
  const int64_t n = x.dim(0);
  const int64_t br = BranchRank(c.family);
  Variable gate;
  if (c.family == Family::kMoe) {
    gate = autograd::SoftmaxLastDim(a.Child("gate")->Forward(features));
    if (!c.conv) {
      gate = autograd::RepeatRowsInterleaved(gate, n / gate.dim(0));
    }
  }
  for (int e = 0; e < kTasks; ++e) {
    const std::string id = std::to_string(e);
    Tensor mask{Shape{n}};
    int64_t count = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (i % kTasks == e) {  // the task ids Bind sets
        mask.flat(i) = 1.0f;
        ++count;
      }
    }
    if (c.family == Family::kMultiOracle && count == 0) continue;
    Variable d;
    if (c.conv) {
      Variable h =
          autograd::Conv2d(x, p("lora_a" + id), Variable(), kGeom);
      d = autograd::Conv2d(
          h, autograd::Reshape(p("lora_b" + id), Shape{kOutCh, br, 1, 1}),
          Variable(), Pointwise());
    } else {
      Variable h = autograd::Linear(x, p("lora_a" + id), Variable());
      d = autograd::Linear(h, p("lora_b" + id), Variable());
    }
    Variable weight;  // [1] or [N]
    if (c.family == Family::kMultiSum) {
      weight = p("scale" + id);
    } else if (c.family == Family::kMultiOracle) {
      weight = Variable(mask, false);
    } else {
      Tensor onehot{Shape{kTasks, 1}};
      onehot.flat(e) = 1.0f;
      weight = autograd::Reshape(
          autograd::Matmul(gate, Variable(onehot, false)),
          Shape{gate.dim(0)});
    }
    d = autograd::Mul(d, Broadcast(weight, d.shape()));
    y = autograd::Add(y, autograd::Scale(d, scaling));
  }
  return y;
}

/// A branch sum's factors stacked: D = [lora_a0; lora_a1] and
/// U = [lora_b0 lora_b1], and its seed c = W·P over `n` rows, the branch
/// weights W repeated over each branch's rank channels.
struct StackedBranches {
  Variable down, up, seed;
};

StackedBranches StackBranches(const Case& c, TnAdapter& a,
                              const Variable& features, int64_t n) {
  auto p = [&](const std::string& name) { return Param(a, name); };
  const int64_t br = BranchRank(c.family);
  StackedBranches s;
  std::vector<Variable> downs, ups_t;
  for (int e = 0; e < kTasks; ++e) {
    const std::string id = std::to_string(e);
    downs.push_back(p("lora_a" + id));
    ups_t.push_back(autograd::Permute(p("lora_b" + id), {1, 0}));
  }
  s.down = autograd::ConcatRows(downs);
  s.up = autograd::Permute(autograd::ConcatRows(ups_t), {1, 0});
  Variable w;  // [1 or rows, kTasks]
  if (c.family == Family::kMultiSum) {
    w = autograd::Reshape(autograd::ConcatRows({p("scale0"), p("scale1")}),
                          Shape{1, kTasks});
  } else if (c.family == Family::kMultiOracle) {
    Tensor mask{Shape{n, kTasks}};
    for (int64_t i = 0; i < n; ++i) mask.flat(i * kTasks + i % kTasks) = 1.0f;
    w = Variable(mask, false);
  } else {
    w = autograd::SoftmaxLastDim(a.Child("gate")->Forward(features));
  }
  Tensor expand{Shape{kTasks, kTasks * br}};
  for (int64_t e = 0; e < kTasks; ++e) {
    for (int64_t j = 0; j < br; ++j) {
      expand.flat(e * kTasks * br + e * br + j) = 1.0f;
    }
  }
  s.seed = autograd::RepeatRowsInterleaved(
      autograd::Matmul(w, Variable(expand, false)), n / w.dim(0));
  return s;
}

Variable Replay(const Case& c, Built& b, const Variable& x,
                const Variable& features, ConvTap* tap = nullptr) {
  TnAdapter& a = *b.adapter;
  auto p = [&](const std::string& name) { return Param(b.Holder(name), name); };
  const float scaling = kAlpha / kRank;
  const int64_t r = kRank;
  const ConvGeom pw = Pointwise();
  Variable y = a.base()->Forward(x);
  if (tap != nullptr) y = ConvTap::Cut(y, &tap->y);
  if (c.family == Family::kTr) {
    return autograd::Add(
        y, autograd::Scale(ReplayTr(c, a, x, features, tap), scaling));
  }
  // A branch sum builds its stacked factors and seed, and MetaLoRA-CP
  // generates (and, for linear, row-aligns) its seed, before the down
  // projection; Meta-LoTR and Meta-TT generate after it.
  StackedBranches stacked;
  if (Branched(c.family)) stacked = StackBranches(c, a, features, x.dim(0));
  Variable seed = stacked.seed;
  auto generate = [&] {
    seed = a.mapping_net()->Forward(features);
    if (!c.conv) {
      seed = autograd::RepeatRowsInterleaved(seed, x.dim(0) / seed.dim(0));
    }
  };
  if (c.family == Family::kCp) generate();
  auto apply_seed = [&](Variable h) {
    if (!Seeded(c.family) && !Branched(c.family)) return h;
    if (!seed.defined()) generate();
    return c.conv ? autograd::ScaleChannels(h, seed) : autograd::Mul(h, seed);
  };
  Variable d;
  if (!c.conv) {
    if (c.family == Family::kTt || c.family == Family::kMetaTt) {
      const int64_t i2 = kIn / tn::TtSplitDim(kIn);
      const int64_t o1 = tn::TtSplitDim(kOut);
      Variable adown = autograd::Reshape(
          autograd::Matmul(p("tt_in_a"),
                           autograd::Reshape(p("tt_in_b"), Shape{r, i2 * r})),
          Shape{kIn, r});
      Variable bup = autograd::Reshape(
          autograd::Matmul(autograd::Reshape(p("tt_out_a"), Shape{r * o1, r}),
                           p("tt_out_b")),
          Shape{r, kOut});
      Variable h = apply_seed(autograd::Matmul(x, adown));
      d = autograd::Matmul(h, bup);
    } else if (Lotr(c.family)) {
      Variable h = apply_seed(autograd::Linear(x, p("lotr_down"), Variable()));
      h = autograd::Linear(h, p("lotr_core"), Variable());
      d = autograd::Linear(h, p("lotr_up"), Variable());
    } else if (Branched(c.family)) {
      Variable h = apply_seed(autograd::Linear(x, stacked.down, Variable()));
      d = autograd::Linear(h, stacked.up, Variable());
    } else {
      Variable h = apply_seed(autograd::Linear(x, p("lora_a"), Variable()));
      d = autograd::Linear(h, p("lora_b"), Variable());
    }
  } else {
    Variable down, up;
    if (c.family == Family::kTt || c.family == Family::kMetaTt) {
      down = autograd::Reshape(
          autograd::Matmul(
              autograd::Reshape(p("tt_channel"), Shape{r * kInCh, r}),
              p("tt_spatial")),
          Shape{r, kInCh, kKernel, kKernel});
      up = p("tt_out");
    } else if (Lotr(c.family)) {
      down = p("lotr_down");
      up = p("lotr_up");
    } else if (Branched(c.family)) {
      down = stacked.down;
      up = stacked.up;
    } else {
      down = p("lora_a");
      up = p("lora_b");
    }
    Variable h = autograd::Conv2d(x, down, Variable(), kGeom);
    if (tap != nullptr) {
      tap->down = down.value();
      h = ConvTap::Cut(h, &tap->h);
    }
    h = apply_seed(h);
    if (Lotr(c.family)) {
      h = autograd::Conv2d(
          h, autograd::Reshape(p("lotr_core"), Shape{r, r, 1, 1}), Variable(),
          pw);
    }
    d = autograd::Conv2d(
        h, autograd::Reshape(up, Shape{kOutCh, up.dim(1), 1, 1}), Variable(),
        pw);
  }
  return autograd::Add(y, autograd::Scale(d, scaling));
}

/// The fresh-init state and registration order, redrawn from Rng(seed) in
/// each family's draw order.
struct FreshState {
  std::map<std::string, Tensor> state;
  std::vector<std::string> order;

  void Add(const std::string& name, Tensor t) {
    state[name] = std::move(t);
    order.push_back(name);
  }
  void AddModule(const std::string& prefix, nn::Module& m) {
    for (auto& np : m.NamedParameters()) {
      Add(prefix + np.name, np.variable->value());
    }
  }
};

FreshState OldFreshState(const Case& c, uint64_t seed) {
  FreshState s;
  const int64_t r = kRank;
  const int64_t in = c.conv ? kInCh : kIn;
  const int64_t out = c.conv ? kOutCh : kOut;
  const int64_t fan = c.conv ? kInCh * kKernel * kKernel : kIn;
  const Shape down_shape =
      c.conv ? Shape{r, kInCh, kKernel, kKernel} : Shape{r, kIn};
  Rng rng(seed);
  std::unique_ptr<nn::Linear> gate;
  switch (c.family) {
    case Family::kLora:
    case Family::kCp: {
      Tensor a{down_shape};
      KaimingNormal(a, rng, fan);
      s.Add("lora_a", a);
      s.Add("lora_b", Tensor::Zeros(Shape{out, r}));
      break;
    }
    case Family::kLotrOwner:
    case Family::kMetaLotr: {
      Tensor a{down_shape};
      KaimingNormal(a, rng, fan);
      s.Add("lotr_down", a);
      Tensor b{Shape{out, r}};
      FillNormal(b, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(r)));
      s.Add("lotr_up", b);
      s.Add("lotr_core", Tensor::Zeros(Shape{r, r}));
      break;
    }
    case Family::kLotrMember:
      s.Add("lotr_core", Tensor::Zeros(Shape{r, r}));
      break;
    case Family::kTr: {
      Tensor a{c.conv ? Shape{r * r, in, kKernel, kKernel}
                      : Shape{r, in, r}};
      FillNormal(a, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(fan)));
      s.Add("core_a", a);
      s.Add("core_b", Tensor::Zeros(Shape{r, out, r}));
      break;
    }
    case Family::kMultiSum:
    case Family::kMultiOracle:
      for (int e = 0; e < kTasks; ++e) {
        const std::string id = std::to_string(e);
        Tensor a{c.conv ? Shape{kBranchRank, in, kKernel, kKernel}
                        : Shape{kBranchRank, in}};
        KaimingNormal(a, rng, fan);
        s.Add("lora_a" + id, a);
        s.Add("lora_b" + id, Tensor::Zeros(Shape{out, kBranchRank}));
        if (c.family == Family::kMultiSum) {
          s.Add("scale" + id, Tensor::Ones(Shape{1}));
        }
      }
      break;
    case Family::kMoe:
      // The gate draws first; its parameters list after the base's.
      gate = std::make_unique<nn::Linear>(kFeatDim, kTasks, /*bias=*/true,
                                          rng);
      for (int e = 0; e < kTasks; ++e) {
        const std::string id = std::to_string(e);
        Tensor a{down_shape};
        KaimingNormal(a, rng, fan);
        s.Add("lora_a" + id, a);
        s.Add("lora_b" + id, Tensor::Zeros(Shape{out, r}));
      }
      break;
    case Family::kTt:
    case Family::kMetaTt: {
      const float std = std::pow(2.0f / static_cast<float>(fan), 0.25f);
      const float std2 = std / std::sqrt(static_cast<float>(r));
      if (c.conv) {
        Tensor gc{Shape{r, in, r}};
        FillNormal(gc, rng, 0.0f, std);
        s.Add("tt_channel", gc);
        Tensor gs{Shape{r, kKernel * kKernel}};
        FillNormal(gs, rng, 0.0f, std2);
        s.Add("tt_spatial", gs);
        s.Add("tt_out", Tensor::Zeros(Shape{out, r}));
      } else {
        const int64_t i1 = tn::TtSplitDim(in), o1 = tn::TtSplitDim(out);
        Tensor g1{Shape{i1, r}};
        FillNormal(g1, rng, 0.0f, std);
        s.Add("tt_in_a", g1);
        Tensor g2{Shape{r, in / i1, r}};
        FillNormal(g2, rng, 0.0f, std2);
        s.Add("tt_in_b", g2);
        Tensor g3{Shape{r, o1, r}};
        FillNormal(g3, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(r)));
        s.Add("tt_out_a", g3);
        s.Add("tt_out_b", Tensor::Zeros(Shape{r, out / o1}));
      }
      break;
    }
  }
  // NamedParameters lists a module's own parameters before its children's
  // (registration order: base, then gate or mapping).
  std::unique_ptr<nn::Module> base;
  if (c.conv) {
    base = BaseConv();
  } else {
    base = BaseLinear();
  }
  s.AddModule("base/", *base);
  if (gate != nullptr) s.AddModule("gate/", *gate);
  if (Generates(c.family)) {
    MappingNet mapping(kFeatDim, kHidden, r,
                       c.family == Family::kTr ? SeedShape::kMatrix
                                               : SeedShape::kVector,
                       rng);
    s.AddModule("mapping/", mapping);
  }
  return s;
}

/// Output, input gradient and every parameter gradient of one
/// forward + backward of sum(y²).
struct Pass {
  Tensor y;
  Tensor x_grad;
  std::map<std::string, Tensor> grads;
};

Pass RunPass(Built& b, const Tensor& x0,
             const std::function<Variable(const Variable&)>& forward) {
  b.adapter->ZeroGrad();
  if (b.owner != nullptr) b.owner->ZeroGrad();
  Variable x(x0.Clone(), /*requires_grad=*/true);
  Variable y = forward(x);
  EXPECT_TRUE(autograd::Backward(autograd::SumAll(autograd::Mul(y, y))).ok());
  Pass p;
  p.y = y.value().Clone();
  p.x_grad = x.grad().Clone();
  std::vector<std::pair<std::string, nn::Module*>> holders = {
      {"", b.adapter.get()}};
  if (b.owner != nullptr) holders.push_back({"owner/", b.owner.get()});
  for (auto& [prefix, m] : holders) {
    for (auto& np : m->NamedParameters()) {
      if (np.variable->grad().defined()) {
        p.grads[prefix + np.name] = np.variable->grad().Clone();
      }
    }
  }
  return p;
}

class TnAdapterTest : public ::testing::TestWithParam<Case> {
 protected:
  /// Linear cases feed two token rows per feature row (the token-wise
  /// MLP-Mixer layout); conv cases one image per feature row.
  int64_t Rows() const { return GetParam().conv ? 2 : 4; }
};

TEST_P(TnAdapterTest, ReplayIsBitIdentical) {
  const Case c = GetParam();
  Built b = Build(c);

  // Fresh init: key list, registration order and bytes.
  const FreshState want =
      OldFreshState(c, c.family == Family::kLotrMember ? 12 : 11);
  const std::map<std::string, Tensor> got = b.adapter->StateDict();
  std::vector<std::string> got_keys, want_keys, got_order;
  for (const auto& [k, v] : got) got_keys.push_back(k);
  for (const auto& [k, v] : want.state) want_keys.push_back(k);
  EXPECT_EQ(got_keys, want_keys);
  for (const auto& [k, v] : want.state) {
    auto it = got.find(k);
    if (it == got.end()) continue;
    EXPECT_TRUE(BytesEqual(it->second, v)) << k;
  }
  for (auto& np : b.adapter->NamedParameters()) got_order.push_back(np.name);
  EXPECT_EQ(got_order, want.order);

  PerturbAll(b, 0.3f);
  const Tensor x0 = Input(c, Rows(), 5);
  const Variable features = Features(2, 6);
  Bind(*b.adapter, features, Rows());

  const Pass got_pass =
      RunPass(b, x0, [&](const Variable& x) { return b.adapter->Forward(x); });
  const Pass want_pass = RunPass(
      b, x0, [&](const Variable& x) { return Replay(c, b, x, features); });
  EXPECT_TRUE(BytesEqual(got_pass.y, want_pass.y)) << "forward output";
  if (c.conv) {
    // A conv chain's input gradient is one GEMM over [W; D]ᵀ:
    // replayed byte for byte through the stacked kernel from the output
    // gradients the op sequence gives the base and down convs, and close
    // to the op sequence's sum of two conv input gradients.
    ConvTap tap;
    const Variable y = Replay(c, b, Variable(x0, false), features, &tap);
    ASSERT_TRUE(autograd::Backward(autograd::SumAll(autograd::Mul(y, y))).ok());
    const Tensor& w = Param(*b.adapter, "base/weight").value();
    const Tensor* weights[] = {&w, &tap.down};
    const Tensor* grad_outputs[] = {&tap.y.grad(), &tap.h.grad()};
    Tensor* grad_weights[] = {nullptr, nullptr};
    Tensor want_x_grad = Tensor::Zeros(x0.shape());
    Conv2dBackward(x0, weights, grad_outputs, kGeom, &want_x_grad,
                   grad_weights, nullptr);
    EXPECT_TRUE(BytesEqual(got_pass.x_grad, want_x_grad))
        << "input gradient vs the stacked replay";
    EXPECT_TRUE(AllClose(got_pass.x_grad, want_pass.x_grad, 1e-5f, 1e-5f))
        << "input gradient vs the two-conv sum, max diff "
        << MaxAbsDiff(got_pass.x_grad, want_pass.x_grad);
  } else {
    EXPECT_TRUE(BytesEqual(got_pass.x_grad, want_pass.x_grad))
        << "input gradient";
  }
  ASSERT_EQ(got_pass.grads.size(), want_pass.grads.size());
  for (const auto& [name, g] : want_pass.grads) {
    ASSERT_EQ(got_pass.grads.count(name), 1u) << name;
    EXPECT_TRUE(BytesEqual(got_pass.grads.at(name), g)) << name;
  }
  auto replay_branches = [&](const Variable& x) {
    return ReplayBranches(c, *b.adapter, x, features,
                          b.adapter->base()->Forward(x));
  };
  auto close = [](const Tensor& got, const Tensor& want) {
    return AllClose(got, want, kBranchSumTol, kBranchSumTol);
  };
  if (Branched(c.family)) {
    const Pass sum_pass = RunPass(b, x0, replay_branches);
    EXPECT_TRUE(close(got_pass.y, sum_pass.y))
        << "forward output vs the branch sum, max diff "
        << MaxAbsDiff(got_pass.y, sum_pass.y);
    EXPECT_TRUE(close(got_pass.x_grad, sum_pass.x_grad))
        << "input gradient vs the branch sum, max diff "
        << MaxAbsDiff(got_pass.x_grad, sum_pass.x_grad);
    ASSERT_EQ(got_pass.grads.size(), sum_pass.grads.size());
    for (const auto& [name, g] : sum_pass.grads) {
      ASSERT_EQ(got_pass.grads.count(name), 1u) << name;
      EXPECT_TRUE(close(got_pass.grads.at(name), g))
          << name << " vs the branch sum, max diff "
          << MaxAbsDiff(got_pass.grads.at(name), g);
    }
  }

  // No-grad: the cold forward fills the conditioning cache, the warm one
  // hits it; both match the replay.
  autograd::NoGradGuard ng;
  const Variable x(x0, false);
  const Tensor want_y = Replay(c, b, x, features).value().Clone();
  const Tensor cold = b.adapter->Forward(x).value().Clone();
  const Tensor warm = b.adapter->Forward(x).value().Clone();
  EXPECT_TRUE(BytesEqual(cold, want_y)) << "cold no-grad output";
  EXPECT_TRUE(BytesEqual(warm, want_y)) << "warm no-grad output";
  if (Branched(c.family)) {
    EXPECT_TRUE(close(cold, replay_branches(x).value()))
        << "no-grad output vs the branch sum";
  }
  if (Generates(c.family)) {
    EXPECT_EQ(b.adapter->conditioning_cache()->stats().hits, 1);
  } else {
    EXPECT_EQ(b.adapter->conditioning_cache(), nullptr);
  }

  // The serving tiers: convs at bf16, GEMMs at bf16 or int8 (int8 without
  // shadows runs as bf16). The generated factors are recomputed under the
  // tier, so the cache is cleared first.
  autograd::RuntimeContext& ctx = autograd::RuntimeContext::Current();
  const AutocastPolicy saved = ctx.autocast();
  for (OpPrecision tier : {OpPrecision::kBf16, OpPrecision::kInt8}) {
    ctx.set_autocast(AutocastPolicy::Serving(tier));
    if (Generates(c.family)) b.adapter->conditioning_cache()->Clear();
    const Tensor want_tier = Replay(c, b, x, features).value().Clone();
    const Tensor got_tier = b.adapter->Forward(x).value().Clone();
    EXPECT_TRUE(BytesEqual(got_tier, want_tier))
        << OpPrecisionName(tier) << " no-grad output";
  }
  ctx.set_autocast(saved);
}

TEST_P(TnAdapterTest, StartsAtPretrainedPoint) {
  const Case c = GetParam();
  Built b = Build(c);
  const Variable x(Input(c, Rows(), 3), false);
  Bind(*b.adapter, Features(2, 4), Rows());
  autograd::NoGradGuard g;
  const Tensor out = b.adapter->Forward(x).value();
  const Tensor base_out = b.adapter->base()->Forward(x).value();
  EXPECT_TRUE(AllClose(out, base_out, 1e-6f, 1e-6f));
}

/// The single-branch chains: a branch sum has no single ΔW.
class SingleBranchTnAdapterTest : public TnAdapterTest {};

TEST_P(SingleBranchTnAdapterTest, ForwardMatchesDeltaWeight) {
  const Case c = GetParam();
  Built b = Build(c);
  PerturbAll(b, 0.5f);
  const int64_t n = c.conv ? 2 : 3;
  const Tensor x = Input(c, n, 8);
  const Variable features = Features(n, 9);
  autograd::NoGradGuard g;
  b.adapter->SetFeatures(features);
  const Tensor out = b.adapter->Forward(Variable(x, false)).value();
  const Tensor base_out =
      b.adapter->base()->Forward(Variable(x, false)).value();
  Tensor seeds;  // [N, R], or TR's ring cores [N, R, R]
  if (Generates(c.family)) {
    seeds = b.adapter->mapping_net()->Forward(features).value();
  }
  // The tighter of the per-family bounds this check had before the chain
  // was one class: 2e-4 absolute, and 1e-4 + 1e-4·|x·ΔWᵀ| (LoRA).
  auto tol = [](double delta) {
    return std::min(2e-4, 1e-4 + 1e-4 * std::abs(delta));
  };
  for (int64_t s = 0; s < n; ++s) {
    Tensor delta;
    if (seeds.defined()) {
      Tensor seed{c.family == Family::kTr ? Shape{kRank, kRank}
                                          : Shape{kRank}};
      const int64_t len = seed.numel();
      for (int64_t r = 0; r < len; ++r) {
        seed.flat(r) = seeds.flat(s * len + r);
      }
      delta = b.adapter->DeltaWeight(&seed);
    } else {
      delta = b.adapter->DeltaWeight();
    }
    if (c.conv) {
      // Conv this sample with the materialized ΔW (Eq. 5 merged form).
      const int64_t in_plane = kInCh * 25, out_plane = kOutCh * 25;
      Tensor xs{Shape{1, kInCh, 5, 5}};
      std::copy(x.data() + s * in_plane, x.data() + (s + 1) * in_plane,
                xs.data());
      const Tensor ds = Conv2dForward(xs, delta, Tensor(), kGeom);
      for (int64_t k = 0; k < out_plane; ++k) {
        EXPECT_NEAR(out.flat(s * out_plane + k),
                    base_out.flat(s * out_plane + k) + ds.flat(k),
                    tol(ds.flat(k)))
            << "sample " << s;
      }
    } else {
      for (int64_t o = 0; o < kOut; ++o) {
        double xdw = 0;
        for (int64_t i = 0; i < kIn; ++i) {
          xdw += static_cast<double>(x.flat(s * kIn + i)) *
                 delta.flat(o * kIn + i);
        }
        EXPECT_NEAR(out.flat(s * kOut + o), base_out.flat(s * kOut + o) + xdw,
                    tol(xdw))
            << "sample " << s << " out " << o;
      }
    }
  }
}

TEST_P(TnAdapterTest, ParamCountMatchesClosedForm) {
  const Case c = GetParam();
  Built b = Build(c);
  const int64_t r = kRank;
  int64_t want = 0;
  switch (c.family) {
    case Family::kLora:
      want = c.conv ? tn::ConvLoraParams(kKernel, kInCh, kOutCh, r)
                    : tn::LoraLinearParams(kIn, kOut, r);
      break;
    case Family::kCp:
      want = c.conv ? tn::ConvLoraParams(kKernel, kInCh, kOutCh, r)
                    : tn::MetaLoraCpLinearParams(kIn, kOut, r);
      break;
    case Family::kLotrOwner:
    case Family::kMetaLotr:
      want = (c.conv ? tn::LotrSharedConvParams(kKernel, kInCh, kOutCh, r)
                     : tn::LotrSharedLinearParams(kIn, kOut, r)) +
             tn::LotrCoreParams(r);
      break;
    case Family::kLotrMember:
      want = tn::LotrCoreParams(r);
      break;
    case Family::kTt:
    case Family::kMetaTt:
      want = c.conv ? tn::TtConvParams(kKernel, kInCh, kOutCh, r)
                    : tn::TtLinearParams(kIn, kOut, r);
      break;
    case Family::kTr:
      want = c.conv ? tn::MetaLoraTrConvParams(kKernel, kInCh, kOutCh, r)
                    : tn::MetaLoraTrLinearParams(kIn, kOut, r);
      break;
    case Family::kMultiSum:
    case Family::kMultiOracle:
    case Family::kMoe: {
      const int64_t br = c.family == Family::kMoe ? r : kBranchRank;
      want = kTasks * (c.conv ? tn::ConvLoraParams(kKernel, kInCh, kOutCh, br)
                              : tn::LoraLinearParams(kIn, kOut, br));
      if (c.family == Family::kMultiSum) want += kTasks;  // branch scales
      // The gate is a Linear{F, E} with bias.
      if (c.family == Family::kMoe) want += kFeatDim * kTasks + kTasks;
      break;
    }
  }
  // The mapping net is an Mlp{F, H, R} (TR: R² outputs) with biases.
  const int64_t seed_len = c.family == Family::kTr ? r * r : r;
  if (Generates(c.family)) {
    want += kFeatDim * kHidden + kHidden + kHidden * seed_len + seed_len;
  }
  EXPECT_EQ(b.adapter->AdapterParamCount(), want);
  // Counts agree with the module's own trainable registry; the base is
  // frozen.
  EXPECT_EQ(b.adapter->AdapterParamCount(), b.adapter->TrainableParamCount());
  EXPECT_EQ(b.adapter->base()->TrainableParamCount(), 0);
}

TEST_P(TnAdapterTest, GradientsMatchFiniteDifference) {
  // Central differences over every trainable parameter of the adapter.
  // Forwards run in grad mode, so seeded kinds recompute their seeds
  // instead of consulting the conditioning cache. The mapping net keeps
  // its init: perturbing it spreads its ReLU pre-activations into the
  // ±eps band, where central differences straddle the kink.
  const Case c = GetParam();
  Built b = Build(c);
  PerturbAll(b, 0.5f, /*mapping=*/false);
  TnAdapter& a = *b.adapter;
  const Variable x(Input(c, 2, 13), false);
  Bind(a, Features(2, 14), 2);
  auto loss = [&] {
    Variable y = a.Forward(x);
    return autograd::SumAll(autograd::Mul(y, y));
  };
  a.ZeroGrad();
  ASSERT_TRUE(autograd::Backward(loss()).ok());
  const double eps = 1e-2, rel_tol = 5e-2, abs_tol = 5e-3;
  int checked = 0;
  for (auto& np : a.NamedParameters()) {
    if (!np.variable->requires_grad()) continue;
    ASSERT_TRUE(np.variable->grad().defined()) << np.name;
    Tensor& v = np.variable->mutable_value();
    const int64_t n = std::min<int64_t>(v.numel(), 16);
    for (int64_t i = 0; i < n; ++i) {
      const float saved = v.flat(i);
      v.flat(i) = saved + static_cast<float>(eps);
      const double up = loss().value().flat(0);
      v.flat(i) = saved - static_cast<float>(eps);
      const double down = loss().value().flat(0);
      v.flat(i) = saved;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = np.variable->grad().flat(i);
      const double tol =
          abs_tol + rel_tol * std::max(std::abs(analytic), std::abs(numeric));
      EXPECT_NEAR(analytic, numeric, tol) << np.name << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
  // The meta-learning signal reaches the mapping net.
  if (Generates(c.family)) {
    EXPECT_TRUE(Param(a, "mapping/mlp/fc0/weight").grad().defined());
  }
}


TEST_P(TnAdapterTest, MergeUnmergeRoundTrip) {
  const Case c = GetParam();
  Built b = Build(c);
  if (Conditioned(c.family) || Branched(c.family)) {
    EXPECT_DEATH(b.adapter->Merge(), "cannot merge");
    return;
  }
  PerturbAll(b, 0.5f);
  const Variable x(Input(c, 2, 12), false);
  const float tol = c.conv ? 1e-3f : 1e-4f;
  autograd::NoGradGuard g;
  const Variable base_weight = Param(*b.adapter->base(), "weight");
  const Tensor& weight = base_weight.value();
  const Tensor before = b.adapter->Forward(x).value().Clone();
  const Tensor w0 = weight.Clone();

  b.adapter->Merge();
  EXPECT_TRUE(b.adapter->merged());
  const Tensor w1 = weight.Clone();
  EXPECT_TRUE(AllClose(b.adapter->Forward(x).value(), before, tol, tol));
  b.adapter->Merge();  // idempotent
  EXPECT_TRUE(BytesEqual(weight, w1));

  b.adapter->Unmerge();
  EXPECT_FALSE(b.adapter->merged());
  EXPECT_TRUE(AllClose(weight, w0, 1e-5f, 1e-5f));
  EXPECT_TRUE(AllClose(b.adapter->Forward(x).value(), before, tol, tol));
}

class ConditionedTnAdapterTest : public TnAdapterTest {};

TEST_P(ConditionedTnAdapterTest, ForwardWithoutFeaturesDies) {
  const Case c = GetParam();
  Built b = Build(c);
  const Variable x(Input(c, 2, 1), false);
  EXPECT_DEATH(b.adapter->Forward(x), "SetFeatures");
}

TEST_P(ConditionedTnAdapterTest, FeatureBatchMismatchDies) {
  const Case c = GetParam();
  Built b = Build(c);
  b.adapter->SetFeatures(Features(2, 10));
  const Variable x(Input(c, 3, 11), false);
  EXPECT_DEATH(b.adapter->Forward(x), "batch size");
}

class LotrMemberTest : public TnAdapterTest {};

TEST_P(LotrMemberTest, AliasesTheOwnersFactors) {
  const Case c = GetParam();
  Built b = Build(c);
  TnAdapter& owner = *b.owner;
  TnAdapter& member = *b.adapter;
  EXPECT_TRUE(owner.owns_shared_factors());
  EXPECT_FALSE(member.owns_shared_factors());
  // Same storage, not a copy.
  EXPECT_EQ(member.share().down.value().data(),
            owner.share().down.value().data());
  EXPECT_EQ(member.share().up.value().data(), owner.share().up.value().data());
  // The member never registers the shared factors: StateDict and optimizers
  // see them exactly once, on the owner.
  auto has_shared = [](nn::Module& m) {
    for (auto& np : m.NamedParameters()) {
      if (np.name == "lotr_down" || np.name == "lotr_up") return true;
    }
    return false;
  };
  EXPECT_TRUE(has_shared(owner));
  EXPECT_FALSE(has_shared(member));

  // Mutating the owner's registered factor reaches the member's ΔW.
  Perturb(member, 17, 0.5f);
  const Tensor before = member.DeltaWeight().Clone();
  Rng rng(19);
  FillNormal(Param(owner, "lotr_down").mutable_value(), rng, 0.0f, 1.0f);
  EXPECT_FALSE(AllClose(member.DeltaWeight(), before, 1e-6f, 1e-6f));

  // A member's backward lands in the one shared storage the owner holds.
  const Variable x(Input(c, 2, 5), false);
  Variable y = member.Forward(x);
  ASSERT_TRUE(autograd::Backward(autograd::SumAll(autograd::Mul(y, y))).ok());
  EXPECT_TRUE(Param(owner, "lotr_down").grad().defined());
  EXPECT_TRUE(Param(owner, "lotr_up").grad().defined());
}

// The frozen base conv under a MetaLoRA-CP conv adapter gets no weight
// gradient, so its backward skips that GEMM. Output, input gradient and
// every adapter parameter gradient must be byte-identical to a pass that
// also computes the base weight's gradient.
TEST(FrozenBaseConvTest, SkippedBaseGradientLeavesAdapterGradientsIdentical) {
  const Case c{Family::kCp, /*conv=*/true};
  Built b = Build(c);
  PerturbAll(b, 0.3f);
  const Tensor x0 = Input(c, 2, 5);
  b.adapter->SetFeatures(Features(2, 6));
  auto forward = [&](const Variable& x) { return b.adapter->Forward(x); };
  Variable base_w = Param(*b.adapter, "base/weight");
  ASSERT_FALSE(base_w.requires_grad());

  const Pass frozen = RunPass(b, x0, forward);
  base_w.set_requires_grad(true);
  const Pass all = RunPass(b, x0, forward);
  base_w.set_requires_grad(false);

  EXPECT_EQ(frozen.grads.count("base/weight"), 0u);
  EXPECT_EQ(all.grads.count("base/weight"), 1u);
  EXPECT_EQ(all.grads.size(), frozen.grads.size() + 1);
  EXPECT_TRUE(BytesEqual(frozen.y, all.y)) << "forward output";
  EXPECT_TRUE(BytesEqual(frozen.x_grad, all.x_grad)) << "input gradient";
  for (const auto& [name, g] : frozen.grads) {
    ASSERT_EQ(all.grads.count(name), 1u) << name;
    EXPECT_TRUE(BytesEqual(all.grads.at(name), g)) << name;
  }
}

// The `adapt` workload's adapted conv: MetaLoRA-CP at rank 2 over an
// 8 → 8, 3×3 base at 16², N = 4. The fused node runs d = U·h through the
// shallow pointwise route and, in backward, D's weight gradient (2 rows)
// through the few-rows route and U's (8 rows over 2 columns) through the
// few-columns route, one product per sample each; output and every
// parameter gradient must equal the op sequence's byte for byte, and the
// input gradient (one stacked GEMM over [W; D]ᵀ) must be close to its sum
// of two conv input gradients.
TEST(AdaptShapeConvTest, MetaLoraCpRankTwoTakesTheRankThinRoutesBitwise) {
  constexpr int64_t kCh = 8, kSide = 16, kBatch = 4, kR = 2;
  AdapterOptions opts = Opts(Case{Family::kCp, /*conv=*/true});
  opts.rank = kR;
  Built b;
  {
    Rng rng(2);
    b.adapter = std::make_unique<TnAdapter>(
        std::make_unique<nn::Conv2d>(kCh, kCh, kKernel, 1, 1, /*bias=*/false,
                                     rng),
        opts);
  }
  PerturbAll(b, 0.3f);
  Rng rng(5);
  const Tensor x0 =
      RandomUniform(Shape{kBatch, kCh, kSide, kSide}, rng, -1.0f, 1.0f);
  const Variable features = Features(kBatch, 6);
  b.adapter->SetFeatures(features);
  auto replay = [&](const Variable& x) {
    TnAdapter& a = *b.adapter;
    const Variable y = a.base()->Forward(x);
    const Variable seed = a.mapping_net()->Forward(features);
    const Variable h = autograd::ScaleChannels(
        autograd::Conv2d(x, Param(a, "lora_a"), Variable(), kGeom), seed);
    const Variable d = autograd::Conv2d(
        h, autograd::Reshape(Param(a, "lora_b"), Shape{kCh, kR, 1, 1}),
        Variable(), Pointwise());
    return autograd::Add(y, autograd::Scale(d, kAlpha / kR));
  };

  const int64_t routes = conv_thin::RouteRuns();
  const Pass got =
      RunPass(b, x0, [&](const Variable& x) { return b.adapter->Forward(x); });
  EXPECT_EQ(conv_thin::RouteRuns() - routes, 3 * kBatch);
  const Pass want = RunPass(b, x0, replay);
  EXPECT_TRUE(BytesEqual(got.y, want.y)) << "forward output";
  EXPECT_TRUE(AllClose(got.x_grad, want.x_grad, 1e-5f, 1e-5f))
      << "input gradient, max diff " << MaxAbsDiff(got.x_grad, want.x_grad);
  ASSERT_EQ(got.grads.size(), want.grads.size());
  EXPECT_EQ(got.grads.count("lora_a"), 1u);
  EXPECT_EQ(got.grads.count("lora_b"), 1u);
  for (const auto& [name, g] : want.grads) {
    ASSERT_EQ(got.grads.count(name), 1u) << name;
    EXPECT_TRUE(BytesEqual(got.grads.at(name), g)) << name;
  }
}

/// Every conv chain, a branch sum of four branches included, records one
/// AdaptedConv2d and no Conv2d: base conv, D, seed, G and U are one node.
class ConvTnAdapterTest : public TnAdapterTest {};

TEST_P(ConvTnAdapterTest, ForwardIsOneAdaptedConv2d) {
  const Case c = GetParam();
  Built b = Build(c);
  if (Branched(c.family)) {
    AdapterOptions o = Opts(c);
    o.num_tasks = 4;
    b.adapter = std::make_unique<TnAdapter>(BaseConv(), o);
  }
  b.adapter->SetFeatures(Features(4, 2));
  b.adapter->SetTaskIds({0, 1, 2, 3});
  const Variable x(Input(c, 4, 1), /*requires_grad=*/true);
  autograd::RuntimeContext ctx;
  ctx.set_profiling(true);
  {
    autograd::RuntimeContextScope scope(&ctx);
    b.adapter->Forward(x);
  }
  const std::map<std::string, autograd::OpProfile>& ops = ctx.op_profiles();
  ASSERT_EQ(ops.count("AdaptedConv2d"), 1u);
  EXPECT_EQ(ops.at("AdaptedConv2d").calls, 1);
  EXPECT_EQ(ops.count("Conv2d"), 0u);
}

std::vector<Case> Cases(const std::vector<Family>& families,
                        const std::vector<bool>& lowerings = {false, true}) {
  std::vector<Case> cases;
  for (Family f : families) {
    for (bool conv : lowerings) cases.push_back({f, conv});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Chains, TnAdapterTest,
    ::testing::ValuesIn(Cases({Family::kLora, Family::kCp, Family::kLotrOwner,
                               Family::kLotrMember, Family::kMetaLotr,
                               Family::kTt, Family::kMetaTt, Family::kTr,
                               Family::kMultiSum, Family::kMultiOracle,
                               Family::kMoe})),
    CaseName);
INSTANTIATE_TEST_SUITE_P(
    Chains, ConvTnAdapterTest,
    ::testing::ValuesIn(Cases({Family::kLora, Family::kCp, Family::kLotrOwner,
                               Family::kLotrMember, Family::kMetaLotr,
                               Family::kTt, Family::kMetaTt, Family::kTr,
                               Family::kMultiSum, Family::kMultiOracle,
                               Family::kMoe},
                              {true})),
    CaseName);
INSTANTIATE_TEST_SUITE_P(
    Chains, SingleBranchTnAdapterTest,
    ::testing::ValuesIn(Cases({Family::kLora, Family::kCp, Family::kLotrOwner,
                               Family::kLotrMember, Family::kMetaLotr,
                               Family::kTt, Family::kMetaTt, Family::kTr})),
    CaseName);
INSTANTIATE_TEST_SUITE_P(
    Chains, ConditionedTnAdapterTest,
    ::testing::ValuesIn(Cases({Family::kCp, Family::kMetaLotr,
                               Family::kMetaTt, Family::kTr, Family::kMoe})),
    CaseName);
INSTANTIATE_TEST_SUITE_P(Chains, LotrMemberTest,
                         ::testing::ValuesIn(Cases({Family::kLotrMember})),
                         CaseName);

}  // namespace
}  // namespace core
}  // namespace metalora
