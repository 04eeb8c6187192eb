#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "tensor/conv_ops.h"
#include "tensor/conv_thin.h"
#include "tensor/gemm.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace autograd {
namespace {

TEST(VariableTest, LeafBasics) {
  Variable v(Tensor::Ones(Shape{2, 2}), /*requires_grad=*/true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.producer(), nullptr);
  EXPECT_FALSE(v.grad().defined());
}

TEST(VariableTest, CopiesShareState) {
  Variable a(Tensor::Ones(Shape{2}), true);
  Variable b = a;
  b.mutable_value().flat(0) = 5.0f;
  EXPECT_EQ(a.value().flat(0), 5.0f);
  b.AccumulateGrad(Tensor::Ones(Shape{2}));
  EXPECT_TRUE(a.grad().defined());
}

TEST(VariableTest, AccumulateGradAdds) {
  Variable v(Tensor::Zeros(Shape{2}), true);
  v.AccumulateGrad(Tensor::Ones(Shape{2}));
  v.AccumulateGrad(Tensor::Ones(Shape{2}));
  EXPECT_EQ(v.grad().flat(0), 2.0f);
  v.ZeroGrad();
  EXPECT_FALSE(v.grad().defined());
}

TEST(VariableTest, GradShapeMismatchDies) {
  Variable v(Tensor::Zeros(Shape{2}), true);
  EXPECT_DEATH(v.AccumulateGrad(Tensor::Ones(Shape{3})), "shape");
}

TEST(VariableTest, DetachDropsHistory) {
  Variable a(Tensor::Ones(Shape{2}), true);
  Variable b = Scale(a, 2.0f);
  EXPECT_NE(b.producer(), nullptr);
  Variable d = b.Detach();
  EXPECT_EQ(d.producer(), nullptr);
  EXPECT_FALSE(d.requires_grad());
  EXPECT_TRUE(AllClose(d.value(), b.value()));
}

TEST(BackwardTest, SimpleChain) {
  Variable x(Tensor::Ones(Shape{3}), true);
  Variable loss = SumAll(Scale(x, 2.0f));
  ASSERT_TRUE(Backward(loss).ok());
  for (int i = 0; i < 3; ++i) EXPECT_EQ(x.grad().flat(i), 2.0f);
}

TEST(BackwardTest, SharedSubexpressionAccumulates) {
  Variable x(Tensor::Ones(Shape{2}), true);
  Variable y = Add(x, x);
  ASSERT_TRUE(Backward(SumAll(y)).ok());
  EXPECT_EQ(x.grad().flat(0), 2.0f);
}

TEST(BackwardTest, DiamondDag) {
  Variable x(Tensor::Full(Shape{1}, 3.0f), true);
  Variable a = Mul(x, x);
  Variable b = Mul(x, x);
  ASSERT_TRUE(Backward(SumAll(Add(a, b))).ok());
  // d/dx 2x² = 4x = 12.
  EXPECT_NEAR(x.grad().flat(0), 12.0f, 1e-5);
}

TEST(BackwardTest, DeepSharedDag) {
  Variable x(Tensor::Ones(Shape{2}), true);
  Variable h = Add(x, x);
  Variable k = Add(h, h);
  ASSERT_TRUE(Backward(SumAll(k)).ok());
  EXPECT_EQ(x.grad().flat(0), 4.0f);
}

TEST(BackwardTest, NonScalarRootRejected) {
  Variable x(Tensor::Ones(Shape{3}), true);
  Variable y = Scale(x, 2.0f);
  EXPECT_EQ(Backward(y).code(), StatusCode::kInvalidArgument);
}

TEST(BackwardTest, SeededBackward) {
  Variable x(Tensor::Ones(Shape{3}), true);
  Variable y = Scale(x, 3.0f);
  Tensor seed = Tensor::FromVector(Shape{3}, {1, 2, 3});
  ASSERT_TRUE(BackwardWithGrad(y, seed).ok());
  EXPECT_EQ(x.grad().ToVector(), (std::vector<float>{3, 6, 9}));
}

TEST(BackwardTest, NoGradInputGetsNoGradient) {
  Variable x(Tensor::Ones(Shape{2}), true);
  Variable frozen(Tensor::Ones(Shape{2}), false);
  ASSERT_TRUE(Backward(SumAll(Mul(x, frozen))).ok());
  EXPECT_TRUE(x.grad().defined());
  EXPECT_FALSE(frozen.grad().defined());
}

bool BytesEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// Conv2d's backward computes only the gradients the graph consumes. For
// each requires-grad pattern of (x, w) — the bias follows w, as under a
// frozen base conv — the defined gradients must be byte-equal to the
// all-gradients kernel, the others undefined, and the skipped products
// must not run: the two halves' counts of products (blocked-engine GEMMs
// and rank-thin conv routes, which take this 5-row weight gradient) must
// add up to the full pass's.
TEST(BackwardTest, Conv2dComputesOnlyTheGradientsItsInputsNeed) {
  Rng rng(17);
  const ConvGeom g{3, 3, 2, 1};
  const Tensor x0 = RandomNormal(Shape{3, 4, 9, 7}, rng);
  const Tensor w0 = RandomNormal(Shape{5, 4, 3, 3}, rng);
  const Tensor b0 = RandomNormal(Shape{5}, rng);
  const Tensor gy = RandomNormal(
      Shape{3, 5, g.OutExtent(9, 3), g.OutExtent(7, 3)}, rng);
  Tensor gx_all = Tensor::Zeros(x0.shape()),
         gw_all = Tensor::Zeros(w0.shape()), gb_all = Tensor::Zeros(b0.shape());
  Conv2dBackward(x0, w0, gy, g, &gx_all, &gw_all, &gb_all);

  struct Pattern {
    bool x, w;
  };
  int64_t calls[3] = {0, 0, 0};
  int run = 0;
  for (const Pattern p : {Pattern{true, false}, Pattern{false, true},
                          Pattern{true, true}}) {
    SCOPED_TRACE("x=" + std::to_string(p.x) + " w=" + std::to_string(p.w));
    Variable x(x0.Clone(), p.x);
    Variable w(w0.Clone(), p.w);
    Variable b(b0.Clone(), p.w);
    Variable y = Conv2d(x, w, b, g);
    const int64_t before = PackedEngineRuns() + conv_thin::RouteRuns();
    ASSERT_TRUE(BackwardWithGrad(y, gy).ok());
    calls[run++] = PackedEngineRuns() + conv_thin::RouteRuns() - before;
    ASSERT_EQ(x.grad().defined(), p.x);
    ASSERT_EQ(w.grad().defined(), p.w);
    ASSERT_EQ(b.grad().defined(), p.w);
    if (p.x) {
      EXPECT_TRUE(BytesEqual(x.grad(), gx_all));
    }
    if (p.w) {
      EXPECT_TRUE(BytesEqual(w.grad(), gw_all));
      EXPECT_TRUE(BytesEqual(b.grad(), gb_all));
    }
  }
  EXPECT_GT(calls[0], 0);
  EXPECT_GT(calls[1], 0);
  EXPECT_EQ(calls[2], calls[0] + calls[1]);
}

TEST(BackwardTest, RootWithoutGraphRejected) {
  Variable x(Tensor::Scalar(1.0f), false);
  EXPECT_EQ(Backward(x).code(), StatusCode::kInvalidArgument);
}

TEST(NoGradTest, SuppressesGraphConstruction) {
  Variable x(Tensor::Ones(Shape{2}), true);
  {
    NoGradGuard guard;
    Variable y = Scale(x, 2.0f);
    EXPECT_EQ(y.producer(), nullptr);
    EXPECT_FALSE(y.requires_grad());
  }
  Variable z = Scale(x, 2.0f);
  EXPECT_NE(z.producer(), nullptr);
}

TEST(NoGradTest, Nests) {
  EXPECT_TRUE(GradEnabled());
  {
    NoGradGuard a;
    EXPECT_FALSE(GradEnabled());
    {
      NoGradGuard b;
      EXPECT_FALSE(GradEnabled());
    }
    EXPECT_FALSE(GradEnabled());
  }
  EXPECT_TRUE(GradEnabled());
}

TEST(BackwardTest, BackwardTwiceAccumulatesIntoLeaves) {
  Variable x(Tensor::Ones(Shape{2}), true);
  Variable loss = SumAll(Scale(x, 1.0f));
  ASSERT_TRUE(Backward(loss).ok());
  ASSERT_TRUE(Backward(loss).ok());
  EXPECT_EQ(x.grad().flat(0), 2.0f);
}

TEST(OpsShapeTest, ReshapeAndPermuteGradientsRestoreLayout) {
  Rng rng(1);
  Variable x(RandomNormal(Shape{2, 3}, rng), true);
  Variable y = Permute(Reshape(x, Shape{3, 2}), {1, 0});
  ASSERT_TRUE(Backward(SumAll(Mul(y, y))).ok());
  EXPECT_TRUE(AllClose(x.grad(), Scale(x.value(), 2.0f), 1e-4f, 1e-5f));
}

TEST(OpsTest, ConcatRowsSplitsGradient) {
  Variable a(Tensor::Ones(Shape{1, 2}), true);
  Variable b(Tensor::Ones(Shape{2, 2}), true);
  Variable c = ConcatRows({a, b});
  EXPECT_EQ(c.shape(), Shape({3, 2}));
  Tensor seed = Tensor::FromVector(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(BackwardWithGrad(c, seed).ok());
  EXPECT_EQ(a.grad().ToVector(), (std::vector<float>{1, 2}));
  EXPECT_EQ(b.grad().ToVector(), (std::vector<float>{3, 4, 5, 6}));
}

TEST(OpsTest, DropoutEvalIsIdentity) {
  Rng rng(3);
  Variable x(Tensor::Ones(Shape{100}), true);
  Variable y = Dropout(x, 0.5f, /*training=*/false, rng);
  EXPECT_TRUE(AllClose(y.value(), x.value()));
}

TEST(OpsTest, DropoutTrainingMasksAndRescales) {
  Rng rng(4);
  Variable x(Tensor::Ones(Shape{10000}), true);
  Variable y = Dropout(x, 0.5f, /*training=*/true, rng);
  int64_t zeros = 0;
  double sum = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    const float v = y.value().flat(i);
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6);
    if (v == 0.0f) ++zeros;
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.05);
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.05);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Variable x(RandomNormal(Shape{4, 7}, rng), false);
  Variable p = Softmax(x);
  for (int64_t i = 0; i < 4; ++i) {
    double row = 0;
    for (int64_t j = 0; j < 7; ++j) row += p.value().flat(i * 7 + j);
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(OpsTest, CrossEntropyOfPerfectPredictionIsSmall) {
  Tensor logits{Shape{2, 3}};
  logits.at({0, 1}) = 50.0f;
  logits.at({1, 2}) = 50.0f;
  Variable x(logits, false);
  Variable loss = SoftmaxCrossEntropy(x, {1, 2});
  EXPECT_LT(loss.value().flat(0), 1e-4f);
}

TEST(OpsTest, CrossEntropyUniformIsLogC) {
  Variable x(Tensor::Zeros(Shape{4, 8}), false);
  Variable loss = SoftmaxCrossEntropy(x, {0, 1, 2, 3});
  EXPECT_NEAR(loss.value().flat(0), std::log(8.0f), 1e-4);
}

TEST(OpsTest, CrossEntropyBadLabelDies) {
  Variable x(Tensor::Zeros(Shape{1, 3}), false);
  EXPECT_DEATH(SoftmaxCrossEntropy(x, {3}), "label out of range");
}

TEST(OpsTest, BatchNormUpdatesRunningStatsOnlyInTraining) {
  Rng rng(6);
  Variable x(RandomNormal(Shape{4, 2, 3, 3}, rng, 5.0f, 2.0f), false);
  Variable gamma(Tensor::Ones(Shape{2}), true);
  Variable beta(Tensor::Zeros(Shape{2}), true);
  Tensor rm = Tensor::Zeros(Shape{2});
  Tensor rv = Tensor::Ones(Shape{2});

  Variable y = BatchNorm2d(x, gamma, beta, rm, rv, /*training=*/true, 0.1f,
                           1e-5f);
  // Output is normalized per channel.
  for (int64_t c = 0; c < 2; ++c) {
    double sum = 0, sum_sq = 0;
    for (int64_t n = 0; n < 4; ++n)
      for (int64_t s = 0; s < 9; ++s) {
        const float v = y.value().flat((n * 2 + c) * 9 + s);
        sum += v;
        sum_sq += static_cast<double>(v) * v;
      }
    EXPECT_NEAR(sum / 36.0, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / 36.0, 1.0, 1e-2);
  }
  // Running stats moved toward the batch stats.
  EXPECT_GT(rm.flat(0), 0.0f);

  Tensor rm_before = rm.Clone(), rv_before = rv.Clone();
  Variable y2 = BatchNorm2d(x, gamma, beta, rm, rv, /*training=*/false, 0.1f,
                            1e-5f);
  EXPECT_TRUE(AllClose(rm, rm_before));
  EXPECT_TRUE(AllClose(rv, rv_before));
}

TEST(OpsTest, LayerNormNormalizesLastDim) {
  Rng rng(7);
  Variable x(RandomNormal(Shape{3, 16}, rng, -2.0f, 3.0f), false);
  Variable gamma(Tensor::Ones(Shape{16}), false);
  Variable beta(Tensor::Zeros(Shape{16}), false);
  Variable y = LayerNorm(x, gamma, beta, 1e-5f);
  for (int64_t r = 0; r < 3; ++r) {
    double sum = 0, sum_sq = 0;
    for (int64_t j = 0; j < 16; ++j) {
      const float v = y.value().flat(r * 16 + j);
      sum += v;
      sum_sq += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(sum / 16.0, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / 16.0, 1.0, 2e-2);
  }
}

// ReLU's gradient runs branch-free, several lanes at a time, and must stay
// byte for byte the scalar g · (x > 0 ? 1 : 0): every pair of ±0, NaN,
// ±inf, a denormal and ordinary values in g and x (a negative g on a dead
// unit is −0, a NaN or infinite g there is NaN), at lengths on both sides
// of the vector widths so the scalar tail runs too.
TEST(ReluGradientTest, MatchesTheScalarMaskBytewise) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f,  -0.0f, nan,   inf,      -inf,
                            1.5f, -2.25f, 1e-40f};
  constexpr int64_t kS = sizeof(specials) / sizeof(specials[0]);
  for (int64_t len : {1, 2, 3, 4, 5, 7, 8, 9, 15, 63, 64, 65, 67}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    Tensor x{Shape{len}}, g{Shape{len}};
    for (int64_t i = 0; i < len; ++i) {
      x.flat(i) = specials[i % kS];
      g.flat(i) = specials[(i / kS + (len < kS * kS ? i : 0)) % kS];
    }
    Variable xv(x, /*requires_grad=*/true);
    ASSERT_TRUE(BackwardWithGrad(Relu(xv), g).ok());
    std::vector<float> want(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) {
      want[static_cast<size_t>(i)] =
          g.flat(i) * (x.flat(i) > 0 ? 1.0f : 0.0f);
    }
    ASSERT_EQ(std::memcmp(want.data(), xv.grad().data(),
                          want.size() * sizeof(float)),
              0);
  }
}

// Under profiling, a Backward sweep books one backward row per op type,
// apart from the forward rows; without profiling it books none.
TEST(BackwardProfileTest, RowsOnlyUnderProfiling) {
  for (bool profiling : {false, true}) {
    RuntimeContext ctx;
    ctx.set_profiling(profiling);
    {
      RuntimeContextScope scope(&ctx);
      Variable x(Tensor::Ones(Shape{4, 3}), /*requires_grad=*/true);
      Variable y = SumAll(Relu(Scale(x, 2.0f)));
      ASSERT_TRUE(Backward(y).ok());
    }
    if (!profiling) {
      EXPECT_TRUE(ctx.op_profiles().empty());
      EXPECT_TRUE(ctx.backward_profiles().empty());
      continue;
    }
    const auto& fwd = ctx.op_profiles();
    const auto& bwd = ctx.backward_profiles();
    for (const char* op : {"Scale", "Relu", "SumAll"}) {
      ASSERT_EQ(bwd.count(op), 1u) << op;
      EXPECT_EQ(bwd.at(op).calls, 1) << op;
      EXPECT_EQ(fwd.at(op).calls, 1) << op;
    }
    EXPECT_EQ(bwd.size(), 3u);
    EXPECT_EQ(bwd.at("Relu").output_bytes, 12 * int64_t{sizeof(float)});
    std::ostringstream table;
    PrintOpProfileTable(ctx, table);
    EXPECT_NE(table.str().find("backward op profile"), std::string::npos);
    ctx.ResetStats();
    EXPECT_TRUE(ctx.backward_profiles().empty());
  }
}

}  // namespace
}  // namespace autograd
}  // namespace metalora
