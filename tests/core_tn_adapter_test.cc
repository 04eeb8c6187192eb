// core::TnAdapter over one case table: every chain family (LoRA,
// MetaLoRA-CP, LoTR owner and member, Meta-LoTR, TT, Meta-TT) × both
// lowerings (linear, conv).
//
// Bit identity: a test-local reference replays each family's forward op
// sequence from the adapter's own parameters (looked up by StateDict key),
// and redraws the fresh-init state from Rng(seed) in the family's draw
// order. Forward output, input and parameter gradients, the warm no-grad
// output (conditioning-cache hit) and the fresh StateDict must match byte
// for byte.
//
// Properties: zero-init start point, factored forward == materialized ΔW
// (per sample for seeded kinds), AdapterParamCount == the tn_cost closed
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
#include "common/rng.h"
#include "core/tn_adapter.h"
#include "tensor/conv_ops.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"
#include "tn/tn_cost.h"

namespace metalora {
namespace core {
namespace {

constexpr int64_t kRank = 3;
constexpr int64_t kFeatDim = 5;
constexpr int64_t kHidden = 4;
// Linear base: I = 6 = 2·3, O = 4 = 2·2 (TT mode splits). Conv base:
// 2 → 4 channels, 3×3, stride 1, padding 1.
constexpr int64_t kIn = 6, kOut = 4;
constexpr int64_t kInCh = 2, kOutCh = 4, kKernel = 3;

enum class Family { kLora, kCp, kLotrOwner, kLotrMember, kMetaLotr, kTt,
                    kMetaTt };

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
  }
  return AdapterKind::kNone;
}

bool Seeded(Family f) {
  return f == Family::kCp || f == Family::kMetaLotr || f == Family::kMetaTt;
}

bool Lotr(Family f) {
  return f == Family::kLotrOwner || f == Family::kLotrMember ||
         f == Family::kMetaLotr;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  static const char* const kNames[] = {"Lora", "MetaLoraCp", "LotrOwner",
                                       "LotrMember", "MetaLotr", "Tt",
                                       "MetaTt"};
  return std::string(kNames[static_cast<int>(info.param.family)]) +
         (info.param.conv ? "_conv" : "_linear");
}

AdapterOptions Opts(const Case& c, uint64_t seed = 11) {
  AdapterOptions o;
  o.kind = KindOf(c.family);
  o.rank = kRank;
  o.alpha = 6.0f;  // scaling 2: a dropped scale cannot hide
  o.feature_dim = kFeatDim;
  o.mapping_hidden = kHidden;
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

// ---------------------------------------------------------------------------
// The reference: each family's forward op sequence, replayed.
// ---------------------------------------------------------------------------

Variable Replay(const Case& c, Built& b, const Variable& x,
                const Variable& features) {
  TnAdapter& a = *b.adapter;
  auto p = [&](const std::string& name) { return Param(b.Holder(name), name); };
  const float scaling = 6.0f / kRank;
  const int64_t r = kRank;
  ConvGeom pw;
  pw.kernel_h = 1;
  pw.kernel_w = 1;
  const ConvGeom geom{kKernel, kKernel, 1, 1};
  Variable y = a.base()->Forward(x);
  // MetaLoRA-CP generates (and, for linear, row-aligns) its seed before
  // the down projection; Meta-LoTR and Meta-TT after it.
  Variable seed;
  auto generate = [&] {
    seed = a.mapping_net()->Forward(features);
    if (!c.conv) {
      seed = autograd::RepeatRowsInterleaved(seed, x.dim(0) / seed.dim(0));
    }
  };
  if (c.family == Family::kCp) generate();
  auto apply_seed = [&](Variable h) {
    if (!Seeded(c.family)) return h;
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
    } else {
      down = p("lora_a");
      up = p("lora_b");
    }
    Variable h = apply_seed(autograd::Conv2d(x, down, Variable(), geom));
    if (Lotr(c.family)) {
      h = autograd::Conv2d(
          h, autograd::Reshape(p("lotr_core"), Shape{r, r, 1, 1}), Variable(),
          pw);
    }
    d = autograd::Conv2d(h, autograd::Reshape(up, Shape{kOutCh, r, 1, 1}),
                         Variable(), pw);
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
  // (registration order: base, then mapping).
  std::unique_ptr<nn::Module> base;
  if (c.conv) {
    base = BaseConv();
  } else {
    base = BaseLinear();
  }
  s.AddModule("base/", *base);
  if (Seeded(c.family)) {
    MappingNet mapping(kFeatDim, kHidden, r, SeedShape::kVector, rng);
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
  if (Seeded(c.family)) b.adapter->SetFeatures(features);

  const Pass got_pass =
      RunPass(b, x0, [&](const Variable& x) { return b.adapter->Forward(x); });
  const Pass want_pass = RunPass(
      b, x0, [&](const Variable& x) { return Replay(c, b, x, features); });
  EXPECT_TRUE(BytesEqual(got_pass.y, want_pass.y)) << "forward output";
  EXPECT_TRUE(BytesEqual(got_pass.x_grad, want_pass.x_grad))
      << "input gradient";
  ASSERT_EQ(got_pass.grads.size(), want_pass.grads.size());
  for (const auto& [name, g] : want_pass.grads) {
    ASSERT_EQ(got_pass.grads.count(name), 1u) << name;
    EXPECT_TRUE(BytesEqual(got_pass.grads.at(name), g)) << name;
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
  if (Seeded(c.family)) {
    EXPECT_EQ(b.adapter->conditioning_cache()->stats().hits, 1);
  } else {
    EXPECT_EQ(b.adapter->conditioning_cache(), nullptr);
  }
}

TEST_P(TnAdapterTest, StartsAtPretrainedPoint) {
  const Case c = GetParam();
  Built b = Build(c);
  const Variable x(Input(c, Rows(), 3), false);
  b.adapter->SetFeatures(Features(2, 4));
  autograd::NoGradGuard g;
  const Tensor out = b.adapter->Forward(x).value();
  const Tensor base_out = b.adapter->base()->Forward(x).value();
  EXPECT_TRUE(AllClose(out, base_out, 1e-6f, 1e-6f));
}

TEST_P(TnAdapterTest, ForwardMatchesDeltaWeight) {
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
  Tensor seeds;
  if (Seeded(c.family)) {
    seeds = b.adapter->mapping_net()->Forward(features).value();
  }
  // The tighter of the per-family bounds this check had before the chain
  // was one class: 2e-4 absolute, and 1e-4 + 1e-4·|x·ΔWᵀ| (LoRA).
  auto tol = [](double delta) {
    return std::min(2e-4, 1e-4 + 1e-4 * std::abs(delta));
  };
  const ConvGeom geom{kKernel, kKernel, 1, 1};
  for (int64_t s = 0; s < n; ++s) {
    Tensor delta;
    if (seeds.defined()) {
      Tensor seed{Shape{kRank}};
      for (int64_t r = 0; r < kRank; ++r) {
        seed.flat(r) = seeds.flat(s * kRank + r);
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
      const Tensor ds = Conv2dForward(xs, delta, Tensor(), geom);
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
  }
  // The mapping net is an Mlp{F, H, R} with biases.
  if (Seeded(c.family)) want += kFeatDim * kHidden + kHidden + kHidden * r + r;
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
  a.SetFeatures(Features(2, 14));
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
  if (Seeded(c.family)) {
    EXPECT_TRUE(Param(a, "mapping/mlp/fc0/weight").grad().defined());
  }
}


TEST_P(TnAdapterTest, MergeUnmergeRoundTrip) {
  const Case c = GetParam();
  Built b = Build(c);
  if (Seeded(c.family)) {
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

class SeededTnAdapterTest : public TnAdapterTest {};

TEST_P(SeededTnAdapterTest, ForwardWithoutFeaturesDies) {
  const Case c = GetParam();
  Built b = Build(c);
  const Variable x(Input(c, 2, 1), false);
  EXPECT_DEATH(b.adapter->Forward(x), "SetFeatures");
}

TEST_P(SeededTnAdapterTest, FeatureBatchMismatchDies) {
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

std::vector<Case> Cases(const std::vector<Family>& families) {
  std::vector<Case> cases;
  for (Family f : families) {
    for (bool conv : {false, true}) cases.push_back({f, conv});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Chains, TnAdapterTest,
    ::testing::ValuesIn(Cases({Family::kLora, Family::kCp, Family::kLotrOwner,
                               Family::kLotrMember, Family::kMetaLotr,
                               Family::kTt, Family::kMetaTt})),
    CaseName);
INSTANTIATE_TEST_SUITE_P(
    Chains, SeededTnAdapterTest,
    ::testing::ValuesIn(Cases({Family::kCp, Family::kMetaLotr,
                               Family::kMetaTt})),
    CaseName);
INSTANTIATE_TEST_SUITE_P(Chains, LotrMemberTest,
                         ::testing::ValuesIn(Cases({Family::kLotrMember})),
                         CaseName);

}  // namespace
}  // namespace core
}  // namespace metalora
