// Multi-LoRA as a core::TnAdapter branch sum: oracle routing sends each
// sample through its task's branch only, sum mode combines every branch
// with a learned scale, and the frozen base stays the start point. The
// byte-level replay of the forward is in core_tn_adapter_test (MultiSum and
// MultiOracle rows).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "core/tn_adapter.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace core {
namespace {

AdapterOptions Opts(int num_tasks,
                    MultiLoraMode mode = MultiLoraMode::kOracleRouting) {
  AdapterOptions o;
  o.kind = AdapterKind::kMultiLora;
  o.rank = 2;
  o.alpha = 4.0f;
  o.num_tasks = num_tasks;
  o.multi_lora_mode = mode;
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

// Sets every branch-b parameter of task `t` to distinct nonzero values.
void ActivateBranch(nn::Module& m, int t, float value) {
  for (auto& np : m.NamedParameters()) {
    if (np.name == "lora_b" + std::to_string(t)) {
      np.variable->mutable_value().Fill(value);
    }
  }
}

TEST(MultiLoraLinearTest, StartsAtPretrainedPoint) {
  TnAdapter ml(BaseLinear(), Opts(3));
  ml.SetTaskIds({0, 1, 2});
  Rng rng(2);
  Tensor x = RandomNormal(Shape{3, 6}, rng);
  autograd::NoGradGuard g;
  Tensor out = ml.Forward(Variable(x, false)).value();
  // All B branches zero-init: output equals frozen base.
  Tensor base_params_out =
      ml.Child("base")->Forward(Variable(x, false)).value();
  EXPECT_TRUE(AllClose(out, base_params_out, 1e-6f, 1e-6f));
}

TEST(MultiLoraLinearTest, RoutesSamplesToOwnBranch) {
  TnAdapter ml(BaseLinear(), Opts(2));
  ActivateBranch(ml, 1, 0.7f);  // only task 1's branch is nonzero
  Rng rng(3);
  Tensor x = RandomNormal(Shape{4, 6}, rng);
  autograd::NoGradGuard g;
  Tensor base_out = ml.Child("base")->Forward(Variable(x, false)).value();

  ml.SetTaskIds({0, 1, 0, 1});
  Tensor out = ml.Forward(Variable(x, false)).value();
  // Task-0 rows untouched; task-1 rows changed.
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(out.flat(0 * 4 + j), base_out.flat(0 * 4 + j), 1e-5);
    EXPECT_NEAR(out.flat(2 * 4 + j), base_out.flat(2 * 4 + j), 1e-5);
  }
  float diff1 = 0;
  for (int64_t j = 0; j < 4; ++j) {
    diff1 += std::fabs(out.flat(1 * 4 + j) - base_out.flat(1 * 4 + j));
  }
  EXPECT_GT(diff1, 1e-3f);
}

TEST(MultiLoraLinearTest, ForwardWithoutTaskIdsDies) {
  TnAdapter ml(BaseLinear(), Opts(2));
  Variable x(Tensor::Ones(Shape{2, 6}), false);
  EXPECT_DEATH(ml.Forward(x), "task ids");
}

TEST(MultiLoraLinearTest, ParamCountScalesWithTasks) {
  TnAdapter two(BaseLinear(), Opts(2));
  TnAdapter four(BaseLinear(), Opts(4));
  EXPECT_EQ(four.AdapterParamCount(), 2 * two.AdapterParamCount());
}

// Task 2 has no row in the batch: its branch stays out of the graph and
// gets no gradient, in either lowering.
class MultiLoraRoutingTest : public ::testing::TestWithParam<bool> {};

TEST_P(MultiLoraRoutingTest, GradientsOnlyReachActiveBranches) {
  const bool conv = GetParam();
  std::unique_ptr<TnAdapter> owned =
      conv ? std::make_unique<TnAdapter>(BaseConv(), Opts(3))
           : std::make_unique<TnAdapter>(BaseLinear(), Opts(3));
  TnAdapter& ml = *owned;
  Rng rng(4);
  Variable x(RandomNormal(conv ? Shape{4, 2, 5, 5} : Shape{4, 6}, rng),
             false);
  ml.SetTaskIds({0, 0, 1, 1});  // task 2 absent from the batch
  Variable y = ml.Forward(x);
  ASSERT_TRUE(autograd::Backward(autograd::SumAll(autograd::Mul(y, y))).ok());
  int checked = 0;
  for (auto& np : ml.NamedParameters()) {
    if (np.name == "lora_a2" || np.name == "lora_b2") {
      EXPECT_FALSE(np.variable->grad().defined()) << np.name;
      ++checked;
    }
    if (np.name == "lora_a0" || np.name == "lora_b0" || np.name == "lora_a1" ||
        np.name == "lora_b1") {
      EXPECT_TRUE(np.variable->grad().defined()) << np.name;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 6);
}

INSTANTIATE_TEST_SUITE_P(Lowerings, MultiLoraRoutingTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "conv" : "linear");
                         });

TEST(MultiLoraConvTest, RoutesSamplesToOwnBranch) {
  TnAdapter ml(BaseConv(), Opts(2));
  ActivateBranch(ml, 0, 0.5f);
  Rng rng(5);
  Tensor x = RandomNormal(Shape{2, 2, 5, 5}, rng);
  autograd::NoGradGuard g;
  Tensor base_out = ml.Child("base")->Forward(Variable(x, false)).value();
  ml.SetTaskIds({1, 0});
  Tensor out = ml.Forward(Variable(x, false)).value();
  const int64_t plane = 4 * 5 * 5;
  float diff0 = 0, diff1 = 0;
  for (int64_t k = 0; k < plane; ++k) {
    diff0 += std::fabs(out.flat(k) - base_out.flat(k));
    diff1 += std::fabs(out.flat(plane + k) - base_out.flat(plane + k));
  }
  EXPECT_LT(diff0, 1e-4f);  // sample 0 is task 1 (inactive branch)
  EXPECT_GT(diff1, 1e-2f);  // sample 1 is task 0 (active branch)
}

TEST(MultiLoraConvTest, StartsAtPretrainedPoint) {
  TnAdapter ml(BaseConv(), Opts(3));
  ml.SetTaskIds({0, 1});
  Rng rng(6);
  Tensor x = RandomNormal(Shape{2, 2, 5, 5}, rng);
  autograd::NoGradGuard g;
  Tensor out = ml.Forward(Variable(x, false)).value();
  Tensor base_out = ml.Child("base")->Forward(Variable(x, false)).value();
  EXPECT_TRUE(AllClose(out, base_out, 1e-6f, 1e-6f));
}

TEST(MultiLoraLinearTest, SumModeNeedsNoTaskIds) {
  TnAdapter ml(BaseLinear(), Opts(3, MultiLoraMode::kSum));
  Rng rng(7);
  Tensor x = RandomNormal(Shape{2, 6}, rng);
  autograd::NoGradGuard g;
  // No SetTaskIds call: sum mode must still work (and equal the base at
  // init, since every B is zero).
  Tensor out = ml.Forward(Variable(x, false)).value();
  Tensor base_out = ml.Child("base")->Forward(Variable(x, false)).value();
  EXPECT_TRUE(AllClose(out, base_out, 1e-6f, 1e-6f));
}

TEST(MultiLoraLinearTest, SumModeCombinesAllBranches) {
  TnAdapter ml(BaseLinear(), Opts(2, MultiLoraMode::kSum));
  ActivateBranch(ml, 0, 0.3f);
  ActivateBranch(ml, 1, 0.3f);
  Rng rng(8);
  Tensor x = RandomNormal(Shape{3, 6}, rng);
  autograd::NoGradGuard g;
  Tensor out = ml.Forward(Variable(x, false)).value();
  Tensor base_out = ml.Child("base")->Forward(Variable(x, false)).value();
  // Every row is affected (no routing).
  for (int64_t i = 0; i < 3; ++i) {
    float diff = 0;
    for (int64_t j = 0; j < 4; ++j)
      diff += std::fabs(out.flat(i * 4 + j) - base_out.flat(i * 4 + j));
    EXPECT_GT(diff, 1e-4f) << "row " << i;
  }
}

TEST(MultiLoraLinearTest, SumModeBranchScalesAreTrainable) {
  TnAdapter ml(BaseLinear(), Opts(2, MultiLoraMode::kSum));
  ActivateBranch(ml, 0, 0.5f);
  Rng rng(9);
  Variable x(RandomNormal(Shape{2, 6}, rng), false);
  Variable y = ml.Forward(x);
  ASSERT_TRUE(autograd::Backward(autograd::SumAll(autograd::Mul(y, y))).ok());
  bool scale_has_grad = false;
  for (auto& np : ml.NamedParameters()) {
    if (np.name == "scale0" && np.variable->grad().defined())
      scale_has_grad = true;
  }
  EXPECT_TRUE(scale_has_grad);
}

TEST(MultiLoraConvTest, BaseRemainsFrozen) {
  TnAdapter ml(BaseConv(), Opts(2));
  EXPECT_EQ(ml.Child("base")->TrainableParamCount(), 0);
  EXPECT_GT(ml.TrainableParamCount(), 0);
}

}  // namespace
}  // namespace core
}  // namespace metalora
