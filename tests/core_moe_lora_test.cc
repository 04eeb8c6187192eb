// MoE-LoRA as a core::TnAdapter branch sum: the "gate" child, a Linear over
// the bound features, weights each expert's LoRA delta by one softmax
// column. The byte-level replay of the forward is in core_tn_adapter_test
// (Moe rows).
#include <gtest/gtest.h>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "core/inject.h"
#include "core/tn_adapter.h"
#include "nn/resnet.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace core {
namespace {

constexpr int64_t kFeatDim = 12;

AdapterOptions Opts(int experts = 3, int64_t rank = 2) {
  AdapterOptions o;
  o.kind = AdapterKind::kMoeLora;
  o.rank = rank;
  o.alpha = static_cast<float>(rank);
  o.num_tasks = experts;
  o.feature_dim = kFeatDim;
  o.seed = 5;
  return o;
}

std::unique_ptr<nn::Linear> BaseLinear() {
  Rng rng(1);
  return std::make_unique<nn::Linear>(6, 4, true, rng);
}

std::unique_ptr<nn::Conv2d> BaseConv() {
  Rng rng(1);
  return std::make_unique<nn::Conv2d>(2, 4, 3, 1, 1, false, rng);
}

/// The gate weights [N, E] for `features`, read through the gate child.
Tensor GateWeights(TnAdapter& moe, const Tensor& features) {
  return autograd::SoftmaxLastDim(
             moe.Child("gate")->Forward(Variable(features, false)))
      .value();
}

TEST(MoeLoraLinearTest, StartsAtPretrainedPoint) {
  TnAdapter moe(BaseLinear(), Opts());
  Rng rng(2);
  Tensor x = RandomNormal(Shape{3, 6}, rng);
  Tensor feats = RandomNormal(Shape{3, kFeatDim}, rng);
  autograd::NoGradGuard g;
  moe.SetFeatures(Variable(feats, false));
  Tensor out = moe.Forward(Variable(x, false)).value();
  Tensor base_out = moe.Child("base")->Forward(Variable(x, false)).value();
  EXPECT_TRUE(AllClose(out, base_out, 1e-6f, 1e-6f));
}

TEST(MoeLoraLinearTest, GateWeightsAreADistribution) {
  TnAdapter moe(BaseLinear(), Opts(4));
  Rng rng(3);
  Tensor feats = RandomNormal(Shape{5, kFeatDim}, rng);
  autograd::NoGradGuard g;
  Tensor w = GateWeights(moe, feats);
  EXPECT_EQ(w.shape(), Shape({5, 4}));
  for (int64_t i = 0; i < 5; ++i) {
    double sum = 0;
    for (int64_t e = 0; e < 4; ++e) {
      EXPECT_GE(w.flat(i * 4 + e), 0.0f);
      sum += w.flat(i * 4 + e);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(MoeLoraLinearTest, GateDependsOnInputFeatures) {
  TnAdapter moe(BaseLinear(), Opts());
  Rng rng(4);
  autograd::NoGradGuard g;
  Tensor w1 = GateWeights(moe, RandomNormal(Shape{1, kFeatDim}, rng, 0, 3));
  Tensor w2 = GateWeights(moe, RandomNormal(Shape{1, kFeatDim}, rng, 0, 3));
  EXPECT_FALSE(AllClose(w1, w2, 1e-4f, 1e-4f));
}

TEST(MoeLoraLinearTest, ForwardWithoutFeaturesDies) {
  TnAdapter moe(BaseLinear(), Opts());
  Variable x(Tensor::Ones(Shape{2, 6}), false);
  EXPECT_DEATH(moe.Forward(x), "SetFeatures");
}

TEST(MoeLoraLinearTest, GradientsReachGateAndExperts) {
  TnAdapter moe(BaseLinear(), Opts());
  // Activate expert paths so the gate matters.
  Rng rng(5);
  for (auto& np : moe.NamedParameters()) {
    if (np.name.rfind("lora_b", 0) == 0) {
      FillNormal(np.variable->mutable_value(), rng, 0.0f, 0.5f);
    }
  }
  Variable x(RandomNormal(Shape{3, 6}, rng), false);
  Variable feats(RandomNormal(Shape{3, kFeatDim}, rng), false);
  moe.SetFeatures(feats);
  Variable y = moe.Forward(x);
  ASSERT_TRUE(autograd::Backward(autograd::SumAll(autograd::Mul(y, y))).ok());
  bool gate_grad = false, expert_grad = false;
  for (auto& np : moe.NamedParameters()) {
    if (np.name.rfind("gate/", 0) == 0 && np.variable->grad().defined())
      gate_grad = true;
    if (np.name == "lora_a0" && np.variable->grad().defined())
      expert_grad = true;
    if (np.name.rfind("base/", 0) == 0) {
      EXPECT_FALSE(np.variable->grad().defined()) << np.name;
    }
  }
  EXPECT_TRUE(gate_grad);
  EXPECT_TRUE(expert_grad);
}

TEST(MoeLoraLinearTest, ForwardIsGateWeightedSum) {
  // With hand-set one-hot-ish gate and known expert outputs, the adapter
  // delta must equal the weighted expert deltas.
  TnAdapter moe(BaseLinear(), Opts(2, 1));
  Rng rng(6);
  for (auto& np : moe.NamedParameters()) {
    if (np.name.rfind("lora_b", 0) == 0)
      FillNormal(np.variable->mutable_value(), rng, 0.0f, 1.0f);
    // Saturate the gate toward expert 0: huge positive bias on logit 0.
    if (np.name == "gate/weight") np.variable->mutable_value().Fill(0.0f);
    if (np.name == "gate/bias") {
      np.variable->mutable_value().flat(0) = 50.0f;
      np.variable->mutable_value().flat(1) = -50.0f;
    }
  }
  Tensor x = RandomNormal(Shape{2, 6}, rng);
  Tensor feats = RandomNormal(Shape{2, kFeatDim}, rng);
  autograd::NoGradGuard g;
  moe.SetFeatures(Variable(feats, false));
  Tensor w = GateWeights(moe, feats);
  EXPECT_NEAR(w.flat(0), 1.0f, 1e-5);  // expert 0 selected

  Tensor out = moe.Forward(Variable(x, false)).value();
  // Rebuild expert 0's delta by hand: scaling * (x·A0ᵀ)·B0ᵀ.
  Tensor a0, b0;
  for (auto& np : moe.NamedParameters()) {
    if (np.name == "lora_a0") a0 = np.variable->value();
    if (np.name == "lora_b0") b0 = np.variable->value();
  }
  Tensor base_out = moe.Child("base")->Forward(Variable(x, false)).value();
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t o = 0; o < 4; ++o) {
      double expected = base_out.flat(i * 4 + o);
      for (int64_t r = 0; r < 1; ++r) {
        double h = 0;
        for (int64_t j = 0; j < 6; ++j)
          h += static_cast<double>(x.flat(i * 6 + j)) * a0.flat(r * 6 + j);
        expected += h * b0.flat(o * 1 + r);  // scaling = alpha/rank = 1
      }
      EXPECT_NEAR(out.flat(i * 4 + o), expected, 2e-4);
    }
  }
}

TEST(MoeLoraConvTest, StartsAtPretrainedPoint) {
  TnAdapter moe(BaseConv(), Opts());
  Rng rng(7);
  Tensor x = RandomNormal(Shape{2, 2, 5, 5}, rng);
  Tensor feats = RandomNormal(Shape{2, kFeatDim}, rng);
  autograd::NoGradGuard g;
  moe.SetFeatures(Variable(feats, false));
  Tensor out = moe.Forward(Variable(x, false)).value();
  Tensor base_out = moe.Child("base")->Forward(Variable(x, false)).value();
  EXPECT_TRUE(AllClose(out, base_out, 1e-6f, 1e-6f));
}

TEST(MoeLoraTest, InjectionIntoResNet) {
  nn::ResNetConfig c;
  c.base_width = 4;
  c.num_classes = 3;
  c.seed = 2;
  nn::ResNet net(c);
  net.SetTraining(false);
  AdapterOptions opts = Opts();
  opts.feature_dim = 16;
  auto r = InjectAdapters(&net, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_wrapped_convs, 7);
  Rng rng(8);
  Tensor x = RandomNormal(Shape{2, 3, 16, 16}, rng);
  r->BindFeatures(nn::Variable(RandomNormal(Shape{2, 16}, rng), false));
  autograd::NoGradGuard g;
  EXPECT_EQ(net.Forward(nn::Variable(x, false)).shape(), Shape({2, 3}));
}

TEST(MoeLoraTest, RequiresFeatureDim) {
  AdapterOptions o = Opts();
  o.feature_dim = 0;
  EXPECT_DEATH(TnAdapter(BaseLinear(), o), "feature_dim");
}

}  // namespace
}  // namespace core
}  // namespace metalora
