// Correctness of the MetaLoRA mapping net and of the TR chain against
// independent oracles: the per-sample factored forward must agree with the
// ΔW of Eq. 7 contracted by tn::TrMatrix (linear) and by an explicit triple
// sum (conv) — the central algebraic claim of the implementation. Both
// formats are core::TnAdapter chains; their forward == DeltaWeight, replay
// and death tests run over the case table in core_tn_adapter_test.cc.
#include <gtest/gtest.h>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "core/mapping_net.h"
#include "core/tn_adapter.h"
#include "tensor/conv_ops.h"
#include "tensor/matmul.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"
#include "tn/tr_format.h"

namespace metalora {
namespace core {
namespace {

constexpr int64_t kFeatDim = 10;

AdapterOptions MetaOpts(AdapterKind kind, int64_t rank = 3) {
  AdapterOptions o;
  o.kind = kind;
  o.rank = rank;
  o.alpha = static_cast<float>(rank);  // scaling = 1 for simpler algebra
  o.feature_dim = kFeatDim;
  o.mapping_hidden = 8;
  o.seed = 11;
  return o;
}

std::unique_ptr<nn::Linear> BaseLinear(int64_t in = 5, int64_t out = 4) {
  Rng rng(2);
  return std::make_unique<nn::Linear>(in, out, true, rng);
}

std::unique_ptr<nn::Conv2d> BaseConv() {
  Rng rng(2);
  return std::make_unique<nn::Conv2d>(2, 4, 3, 1, 1, false, rng);
}

void RandomizeAdapterFactors(nn::Module& m, uint64_t seed) {
  Rng rng(seed);
  for (auto& np : m.NamedParameters()) {
    if (np.name == "lora_b" || np.name == "core_b") {
      FillNormal(np.variable->mutable_value(), rng, 0.0f, 0.5f);
    }
  }
}

TEST(MappingNetTest, VectorSeedShapeAndIdentityCenter) {
  Rng rng(1);
  MappingNet net(kFeatDim, 8, 4, SeedShape::kVector, rng);
  // Zero the MLP output layer -> raw = 0 -> c = 1 exactly.
  for (auto& np : net.NamedParameters()) {
    if (np.name.find("fc1") != std::string::npos) {
      np.variable->mutable_value().Fill(0.0f);
    }
  }
  autograd::NoGradGuard g;
  Variable feats(Tensor::Ones(Shape{3, kFeatDim}), false);
  Variable c = net.Forward(feats);
  EXPECT_EQ(c.shape(), Shape({3, 4}));
  for (int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.value().flat(i), 1.0f, 1e-6);
  }
}

TEST(MappingNetTest, MatrixSeedShapeAndIdentityCenter) {
  Rng rng(1);
  MappingNet net(kFeatDim, 8, 3, SeedShape::kMatrix, rng);
  for (auto& np : net.NamedParameters()) {
    if (np.name.find("fc1") != std::string::npos) {
      np.variable->mutable_value().Fill(0.0f);
    }
  }
  autograd::NoGradGuard g;
  Variable feats(Tensor::Ones(Shape{2, kFeatDim}), false);
  Variable c = net.Forward(feats);
  EXPECT_EQ(c.shape(), Shape({2, 3, 3}));
  for (int64_t s = 0; s < 2; ++s) {
    for (int64_t i = 0; i < 3; ++i) {
      for (int64_t j = 0; j < 3; ++j) {
        EXPECT_NEAR(c.value().at({s, i, j}), i == j ? 1.0f : 0.0f, 1e-6);
      }
    }
  }
}

TEST(MappingNetTest, SeedsAreBoundedAroundIdentity) {
  Rng rng(7);
  MappingNet net(kFeatDim, 8, 4, SeedShape::kVector, rng);
  autograd::NoGradGuard g;
  Variable feats(RandomNormal(Shape{8, kFeatDim}, rng, 0, 5), false);
  Variable c = net.Forward(feats);
  EXPECT_GE(MinAll(c.value()), 0.0f);   // 1 + tanh >= 0
  EXPECT_LE(MaxAll(c.value()), 2.0f);   // 1 + tanh <= 2
}

TEST(MappingNetTest, SeedsDependOnInput) {
  Rng rng(8);
  MappingNet net(kFeatDim, 8, 4, SeedShape::kVector, rng);
  autograd::NoGradGuard g;
  Variable f1(RandomNormal(Shape{1, kFeatDim}, rng), false);
  Variable f2(RandomNormal(Shape{1, kFeatDim}, rng), false);
  EXPECT_FALSE(AllClose(net.Forward(f1).value(), net.Forward(f2).value()));
}

TEST(MetaLoraCpTest, GradientFlowsIntoMappingNet) {
  TnAdapter meta(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  RandomizeAdapterFactors(meta, 17);
  Rng rng(5);
  Variable x(RandomNormal(Shape{3, 5}, rng), false);
  Variable feats(RandomNormal(Shape{3, kFeatDim}, rng), false);
  meta.SetFeatures(feats);
  Variable y = meta.Forward(x);
  ASSERT_TRUE(autograd::Backward(autograd::SumAll(autograd::Mul(y, y))).ok());
  bool mapping_got_grad = false;
  for (auto& np : meta.NamedParameters()) {
    if (np.name.rfind("mapping/", 0) == 0 && np.variable->grad().defined()) {
      mapping_got_grad = true;
    }
    if (np.name.rfind("base/", 0) == 0) {
      EXPECT_FALSE(np.variable->grad().defined()) << np.name;
    }
  }
  EXPECT_TRUE(mapping_got_grad)
      << "meta-learning signal did not reach the mapping net";
}

TEST(MetaLoraTrLinearTest, PerSampleForwardMatchesMaterializedDeltaW) {
  TnAdapter meta(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraTr, 2));
  RandomizeAdapterFactors(meta, 19);
  Rng rng(7);
  const int64_t n = 3;
  Tensor x = RandomNormal(Shape{n, 5}, rng);
  Tensor feats = RandomNormal(Shape{n, kFeatDim}, rng);

  autograd::NoGradGuard g;
  Variable fv(feats, false);
  meta.SetFeatures(fv);
  Tensor out = meta.Forward(Variable(x, false)).value();
  Tensor base_out = meta.Child("base")->Forward(Variable(x, false)).value();
  Tensor seeds = meta.mapping_net()->Forward(fv).value();  // [n, R, R]
  Tensor core_a, core_b;
  for (auto& np : meta.NamedParameters()) {
    if (np.name == "core_a") core_a = np.variable->value();
    if (np.name == "core_b") core_b = np.variable->value();
  }
  ASSERT_TRUE(core_a.defined() && core_b.defined());

  for (int64_t s = 0; s < n; ++s) {
    Tensor core{Shape{2, 2}};
    for (int64_t i = 0; i < 4; ++i) core.flat(i) = seeds.flat(s * 4 + i);
    // Scaling is 1 (alpha = rank).
    auto delta_io = tn::TrMatrix(core_a, core_b, core);  // [I, O]
    ASSERT_TRUE(delta_io.ok()) << delta_io.status().ToString();
    const Tensor delta = Transpose2D(delta_io.value());  // [O, I]
    for (int64_t o = 0; o < 4; ++o) {
      double expected = base_out.flat(s * 4 + o);
      for (int64_t i = 0; i < 5; ++i) {
        expected += static_cast<double>(x.flat(s * 5 + i)) *
                    delta.flat(o * 5 + i);
      }
      EXPECT_NEAR(out.flat(s * 4 + o), expected, 2e-4);
    }
  }
}

TEST(MetaLoraTrConvTest, PerSampleForwardMatchesExplicitSum) {
  const int64_t r = 2;
  TnAdapter meta(BaseConv(), MetaOpts(AdapterKind::kMetaLoraTr, r));
  RandomizeAdapterFactors(meta, 29);
  Rng rng(9);
  const int64_t n = 2;
  Tensor x = RandomNormal(Shape{n, 2, 5, 5}, rng);
  Tensor feats = RandomNormal(Shape{n, kFeatDim}, rng);

  autograd::NoGradGuard g;
  Variable fv(feats, false);
  meta.SetFeatures(fv);
  Tensor out = meta.Forward(Variable(x, false)).value();
  Tensor base_out = meta.Child("base")->Forward(Variable(x, false)).value();
  Tensor seeds = meta.mapping_net()->Forward(fv).value();  // [n, r2, r0]

  // Recover stored cores.
  Tensor core_a, core_b;
  for (auto& np : meta.NamedParameters()) {
    if (np.name == "core_a") core_a = np.variable->value();
    if (np.name == "core_b") core_b = np.variable->value();
  }
  ASSERT_TRUE(core_a.defined() && core_b.defined());

  ConvGeom geom{3, 3, 1, 1};
  const float scaling = static_cast<float>(r) / r;  // alpha = rank -> 1
  for (int64_t s = 0; s < n; ++s) {
    // ΔW_s[o, i, kh, kw] = Σ_{r0,r1,r2} A[(r0*r+r1), i,kh,kw]·B[r1,o,r2]·C_s[r2,r0]
    Tensor delta{Shape{4, 2, 3, 3}};
    for (int64_t o = 0; o < 4; ++o) {
      for (int64_t idx = 0; idx < 2 * 3 * 3; ++idx) {
        double acc = 0;
        for (int64_t r0 = 0; r0 < r; ++r0)
          for (int64_t r1 = 0; r1 < r; ++r1)
            for (int64_t r2 = 0; r2 < r; ++r2)
              acc += static_cast<double>(
                         core_a.flat((r0 * r + r1) * 18 + idx)) *
                     core_b.at({r1, o, r2}) *
                     seeds.flat((s * r + r2) * r + r0);
        delta.flat(o * 18 + idx) = static_cast<float>(acc * scaling);
      }
    }
    Tensor xs{Shape{1, 2, 5, 5}};
    std::copy(x.data() + s * 50, x.data() + (s + 1) * 50, xs.data());
    Tensor ds = Conv2dForward(xs, delta, Tensor(), geom);
    const int64_t plane = 4 * 5 * 5;
    for (int64_t k = 0; k < plane; ++k) {
      EXPECT_NEAR(out.flat(s * plane + k),
                  base_out.flat(s * plane + k) + ds.flat(k), 5e-4);
    }
  }
}

TEST(MetaLoraParamsTest, TrHasMoreCapacityThanCpAtSameRank) {
  TnAdapter cp(BaseLinear(32, 32), MetaOpts(AdapterKind::kMetaLoraCp, 4));
  TnAdapter tr(BaseLinear(32, 32), MetaOpts(AdapterKind::kMetaLoraTr, 4));
  EXPECT_GT(tr.AdapterParamCount(), cp.AdapterParamCount());
}

}  // namespace
}  // namespace core
}  // namespace metalora
