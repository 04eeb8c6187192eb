// Static LoRA / Conv-LoRA specifics of core::TnAdapter. The properties
// every chain family shares (start point, forward == ΔW, the Fig. 3
// two-stage == merged identity, parameter counts, Merge round trips) are
// checked over the full case table in core_tn_adapter_test.cc.
#include <gtest/gtest.h>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "core/tn_adapter.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"
#include "tn/tn_cost.h"

namespace metalora {
namespace core {
namespace {

AdapterOptions Opts(int64_t rank = 4, float alpha = 8.0f) {
  AdapterOptions o;
  o.kind = AdapterKind::kLora;
  o.rank = rank;
  o.alpha = alpha;
  o.seed = 3;
  return o;
}

std::unique_ptr<nn::Linear> MakeBaseLinear(int64_t in, int64_t out) {
  Rng rng(9);
  return std::make_unique<nn::Linear>(in, out, /*bias=*/true, rng);
}

std::unique_ptr<nn::Conv2d> MakeBaseConv(int64_t in, int64_t out, int64_t k) {
  Rng rng(9);
  return std::make_unique<nn::Conv2d>(in, out, k, 1, k / 2, /*bias=*/false,
                                      rng);
}

TEST(LoraChainTest, GradientsFlowToAdapterOnly) {
  TnAdapter lora(MakeBaseLinear(6, 4), Opts());
  Rng rng(4);
  Variable x(RandomNormal(Shape{3, 6}, rng), false);
  Variable y = lora.Forward(x);
  ASSERT_TRUE(autograd::Backward(autograd::SumAll(autograd::Mul(y, y))).ok());
  for (auto& np : lora.NamedParameters()) {
    const bool is_adapter =
        np.name == "lora_a" || np.name == "lora_b";
    EXPECT_EQ(np.variable->grad().defined(), is_adapter) << np.name;
  }
}

TEST(ConvLoraChainTest, ParamCountFarBelowDense) {
  TnAdapter lora(MakeBaseConv(16, 32, 3), Opts(4));
  EXPECT_EQ(lora.AdapterParamCount(), tn::ConvLoraParams(3, 16, 32, 4));
  EXPECT_LT(lora.AdapterParamCount(), tn::DenseConvParams(3, 16, 32) / 4);
}

TEST(ConvLoraChainTest, AlphaScalesDelta) {
  // Doubling alpha doubles the adapter path.
  auto make = [](float alpha) {
    TnAdapter lora(MakeBaseConv(2, 3, 3), Opts(2, alpha));
    Rng rng(8);
    for (auto& np : lora.NamedParameters()) {
      if (np.name == "lora_b") {
        FillNormal(np.variable->mutable_value(), rng, 0.0f, 1.0f);
      }
    }
    return lora.DeltaWeight();
  };
  Tensor d1 = make(2.0f);
  Tensor d2 = make(4.0f);
  EXPECT_TRUE(AllClose(d2, Scale(d1, 2.0f), 1e-5f, 1e-5f));
}

}  // namespace
}  // namespace core
}  // namespace metalora
