// Finite-difference gradient checks for every differentiable op. This file
// is the master correctness oracle of the autograd layer: if these pass, the
// MetaLoRA training dynamics are trustworthy.
#include "autograd/gradcheck.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "tensor/random_init.h"

namespace metalora {
namespace autograd {
namespace {

Tensor Rand(Shape s, uint64_t seed, float lo = -1.0f, float hi = 1.0f) {
  Rng rng(seed);
  return RandomUniform(std::move(s), rng, lo, hi);
}

void ExpectGradOk(const ScalarFn& f, const std::vector<Tensor>& inputs,
                  GradCheckOptions opts = {}) {
  GradCheckReport r = CheckGradients(f, inputs, opts);
  EXPECT_TRUE(r.passed) << "max rel err " << r.max_rel_error << " at input "
                        << r.worst_input << " elem " << r.worst_element
                        << " analytic " << r.analytic << " numeric "
                        << r.numeric;
}

TEST(GradCheck, Add) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Mul(Add(v[0], v[1]), v[0]));
  }, {Rand({3, 4}, 1), Rand({3, 4}, 2)});
}

TEST(GradCheck, Sub) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Mul(Sub(v[0], v[1]), Sub(v[0], v[1])));
  }, {Rand({3, 4}, 3), Rand({3, 4}, 4)});
}

TEST(GradCheck, MulAndScale) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Scale(Mul(v[0], v[1]), 0.5f));
  }, {Rand({2, 5}, 5), Rand({2, 5}, 6)});
}

TEST(GradCheck, AddRowBroadcast) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Mul(AddRowBroadcast(v[0], v[1]),
                      AddRowBroadcast(v[0], v[1])));
  }, {Rand({4, 3}, 7), Rand({3}, 8)});
}

TEST(GradCheck, MulRowBroadcast) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Mul(MulRowBroadcast(v[0], v[1]), v[0]));
  }, {Rand({4, 3}, 9), Rand({3}, 10)});
}

TEST(GradCheck, ScaleChannels) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Mul(ScaleChannels(v[0], v[1]), v[0]));
  }, {Rand({2, 3, 2, 2}, 11), Rand({2, 3}, 12)});
}

TEST(GradCheck, Relu) {
  // Shift away from 0 to avoid the kink.
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Relu(v[0]));
  }, {Rand({4, 4}, 15, 0.2f, 1.0f)});
}

TEST(GradCheck, Gelu) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Gelu(v[0]));
  }, {Rand({3, 5}, 16)});
}

TEST(GradCheck, TanhSigmoidExpSquare) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Tanh(v[0]));
  }, {Rand({3, 3}, 17)});
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Sigmoid(v[0]));
  }, {Rand({3, 3}, 18)});
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Exp(v[0]));
  }, {Rand({3, 3}, 19)});
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Square(v[0]));
  }, {Rand({3, 3}, 20)});
}

TEST(GradCheck, MeanAll) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    return MeanAll(Mul(v[0], v[0]));
  }, {Rand({4, 4}, 21)});
}

TEST(GradCheck, Matmul) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Mul(Matmul(v[0], v[1]), Matmul(v[0], v[1])));
  }, {Rand({3, 4}, 22), Rand({4, 2}, 23)});
}

TEST(GradCheck, LinearWithBias) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    Variable y = Linear(v[0], v[1], v[2]);
    return SumAll(Mul(y, y));
  }, {Rand({3, 4}, 24), Rand({5, 4}, 25), Rand({5}, 26)});
}

TEST(GradCheck, LinearNoBias) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    Variable y = Linear(v[0], v[1], Variable());
    return SumAll(Mul(y, y));
  }, {Rand({2, 3}, 27), Rand({4, 3}, 28)});
}

TEST(GradCheck, BatchedMatmul) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    Variable y = BatchedMatmul(v[0], v[1]);
    return SumAll(Mul(y, y));
  }, {Rand({2, 3, 4}, 29), Rand({2, 4, 2}, 30)});
}

TEST(GradCheck, PerSamplePointwiseConv) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    Variable y = PerSamplePointwiseConv(v[0], v[1]);
    return SumAll(Mul(y, y));
  }, {Rand({2, 3, 2, 2}, 31), Rand({2, 4, 3}, 32)});
}

TEST(GradCheck, Conv2d) {
  ConvGeom g{3, 3, 1, 1};
  ExpectGradOk([g](const std::vector<Variable>& v) {
    Variable y = Conv2d(v[0], v[1], v[2], g);
    return SumAll(Mul(y, y));
  }, {Rand({2, 2, 5, 5}, 33), Rand({3, 2, 3, 3}, 34), Rand({3}, 35)});
}

TEST(GradCheck, Conv2dStrided) {
  ConvGeom g{3, 3, 2, 1};
  ExpectGradOk([g](const std::vector<Variable>& v) {
    Variable y = Conv2d(v[0], v[1], Variable(), g);
    return SumAll(Mul(y, y));
  }, {Rand({1, 2, 7, 7}, 36), Rand({2, 2, 3, 3}, 37)});
}

// AdaptedConv2d over every combination of: seed c present, core G
// present, per-sample up (TR's M_n) instead of a shared U, x needing a
// gradient, and W trainable (its bias with it, else both frozen as under
// an adapter). Inputs that need no gradient are captured as constants, so
// the op skips their work; the checked list holds the rest.
class AdaptedConvGradCheck : public ::testing::TestWithParam<int> {};

TEST_P(AdaptedConvGradCheck, MatchesFiniteDifferences) {
  const int bits = GetParam();
  const bool seeded = bits & 1, cored = bits & 2, per_sample = bits & 4;
  const bool x_grad = bits & 8, w_grad = bits & 16;
  const int64_t n = 2, c = 2, o = 3, r = 2;
  const ConvGeom g{3, 3, 1, 1};
  enum { kX, kW, kBias, kDown, kSeed, kCore, kUp, kSlots };
  const Tensor values[kSlots] = {
      Rand({n, c, 5, 5}, 70),     Rand({o, c, 3, 3}, 71),
      Rand({o}, 72),              Rand({r, c, 3, 3}, 73),
      Rand({n, r}, 74),           Rand({r, r}, 75),
      per_sample ? Rand({n, o, r}, 76) : Rand({o, r}, 76)};
  const bool present[kSlots] = {true, true, true, true, seeded, cored, true};
  const bool trainable[kSlots] = {x_grad, w_grad, w_grad, true,
                                  true,   true,   true};
  int index[kSlots];
  std::vector<Tensor> checked;
  for (int i = 0; i < kSlots; ++i) {
    index[i] = -1;
    if (present[i] && trainable[i]) {
      index[i] = static_cast<int>(checked.size());
      checked.push_back(values[i]);
    }
  }
  ExpectGradOk(
      [&](const std::vector<Variable>& v) {
        auto in = [&](int i) {
          if (!present[i]) return Variable();
          return index[i] >= 0 ? v[static_cast<size_t>(index[i])]
                               : Variable(values[i], false);
        };
        Variable y = AdaptedConv2d(in(kX), in(kW), in(kBias), in(kDown),
                                   in(kSeed), in(kCore), in(kUp), 0.7f, g);
        return SumAll(Mul(y, y));
      },
      checked);
}

INSTANTIATE_TEST_SUITE_P(
    SeedCoreUpXW, AdaptedConvGradCheck, ::testing::Range(0, 32),
    [](const ::testing::TestParamInfo<int>& info) {
      const int b = info.param;
      return std::string(b & 1 ? "Seed" : "NoSeed") +
             (b & 2 ? "Core" : "NoCore") +
             (b & 4 ? "PerSampleUp" : "SharedUp") +
             (b & 8 ? "XGrad" : "XConst") + (b & 16 ? "WGrad" : "WFrozen");
    });

TEST(GradCheck, Pooling) {
  ConvGeom g{2, 2, 2, 0};
  // MaxPool: perturbations must not flip the argmax, so use well-separated
  // values and a small eps.
  GradCheckOptions opts;
  opts.eps = 1e-3;
  ExpectGradOk([g](const std::vector<Variable>& v) {
    return SumAll(Mul(MaxPool2d(v[0], g), MaxPool2d(v[0], g)));
  }, {Rand({1, 2, 4, 4}, 38, 1.0f, 9.0f)}, opts);
  ExpectGradOk([g](const std::vector<Variable>& v) {
    return SumAll(Mul(AvgPool2d(v[0], g), AvgPool2d(v[0], g)));
  }, {Rand({1, 2, 4, 4}, 39)});
  ExpectGradOk([](const std::vector<Variable>& v) {
    return SumAll(Mul(GlobalAvgPool(v[0]), GlobalAvgPool(v[0])));
  }, {Rand({2, 3, 3, 3}, 40)});
}

TEST(GradCheck, ReshapePermute) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    Variable y = Permute(Reshape(v[0], Shape{4, 3}), {1, 0});
    return SumAll(Mul(y, y));
  }, {Rand({3, 4}, 41)});
}

TEST(GradCheck, Softmax) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    Variable p = Softmax(v[0]);
    return SumAll(Mul(p, v[0]));
  }, {Rand({3, 5}, 42)});
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  std::vector<int64_t> labels = {0, 2, 1};
  ExpectGradOk([labels](const std::vector<Variable>& v) {
    return SoftmaxCrossEntropy(v[0], labels);
  }, {Rand({3, 4}, 43)});
}

TEST(GradCheck, MseLoss) {
  Tensor target = Rand({3, 3}, 44);
  ExpectGradOk([target](const std::vector<Variable>& v) {
    return MseLoss(v[0], target);
  }, {Rand({3, 3}, 45)});
}

TEST(GradCheck, LayerNorm) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    Variable y = LayerNorm(v[0], v[1], v[2], 1e-5f);
    return SumAll(Mul(y, y));
  }, {Rand({4, 6}, 46), Rand({6}, 47, 0.5f, 1.5f), Rand({6}, 48)});
}

TEST(GradCheck, BatchNormTraining) {
  Tensor rm = Tensor::Zeros(Shape{2});
  Tensor rv = Tensor::Ones(Shape{2});
  GradCheckOptions opts;
  opts.rel_tol = 8e-2;  // float32 variance chain is noisier
  ExpectGradOk([&rm, &rv](const std::vector<Variable>& v) {
    Tensor m = rm.Clone(), s = rv.Clone();  // don't drift across evals
    Variable y = BatchNorm2d(v[0], v[1], v[2], m, s, /*training=*/true, 0.1f,
                             1e-5f);
    return SumAll(Mul(y, v[0]));
  }, {Rand({3, 2, 3, 3}, 49), Rand({2}, 50, 0.5f, 1.5f), Rand({2}, 51)}, opts);
}

TEST(GradCheck, BatchNormEval) {
  Tensor rm = Rand({2}, 52);
  Tensor rv = Rand({2}, 53, 0.5f, 1.5f);
  ExpectGradOk([&rm, &rv](const std::vector<Variable>& v) {
    Tensor m = rm.Clone(), s = rv.Clone();
    Variable y = BatchNorm2d(v[0], v[1], v[2], m, s, /*training=*/false, 0.1f,
                             1e-5f);
    return SumAll(Mul(y, y));
  }, {Rand({2, 2, 2, 2}, 54), Rand({2}, 55, 0.5f, 1.5f), Rand({2}, 56)});
}

TEST(GradCheck, RepeatRowsInterleaved) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    Variable r = RepeatRowsInterleaved(v[0], 3);  // [2,2] -> [6,2]
    return SumAll(Mul(r, r));
  }, {Rand({2, 2}, 72)});
}

TEST(GradCheck, SoftmaxLastDimRank3) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    Variable p = SoftmaxLastDim(v[0]);
    return SumAll(Mul(p, v[0]));
  }, {Rand({2, 3, 4}, 73)});
}

// The full MetaLoRA-CP linear composite: gradient must flow through the
// generated seed path (x·Aᵀ ⊙ c)·Bᵀ into all four operands.
TEST(GradCheck, MetaLoraCpCompositePath) {
  ExpectGradOk([](const std::vector<Variable>& v) {
    const Variable& x = v[0];
    const Variable& a = v[1];   // [R, I]
    const Variable& b = v[2];   // [O, R]
    const Variable& c = v[3];   // [N, R]
    Variable h = Linear(x, a, Variable());
    h = Mul(h, c);
    Variable d = Linear(h, b, Variable());
    return SumAll(Mul(d, d));
  }, {Rand({3, 5}, 57), Rand({2, 5}, 58), Rand({4, 2}, 59), Rand({3, 2}, 60)});
}

// The full MetaLoRA-TR linear composite (Eq. 7 applied batch-wise).
TEST(GradCheck, MetaLoraTrCompositePath) {
  const int64_t n = 2, in = 4, out = 3, r = 2;
  ExpectGradOk([=](const std::vector<Variable>& v) {
    const Variable& x = v[0];       // [N, I]
    const Variable& core_a = v[1];  // [R, I, R]
    const Variable& core_b = v[2];  // [R, O, R]
    const Variable& core_c = v[3];  // [N, R, R]
    Variable a_mat = Reshape(Permute(core_a, {1, 0, 2}), Shape{in, r * r});
    Variable u = Reshape(Matmul(x, a_mat), Shape{n, r, r});
    Variable u_t = Permute(u, {0, 2, 1});
    Variable c_t = Permute(core_c, {0, 2, 1});
    Variable vv = BatchedMatmul(u_t, c_t);
    Variable b_mat = Reshape(Permute(core_b, {0, 2, 1}), Shape{r * r, out});
    Variable d = Matmul(Reshape(vv, Shape{n, r * r}), b_mat);
    return SumAll(Mul(d, d));
  }, {Rand({n, in}, 61), Rand({r, in, r}, 62), Rand({r, out, r}, 63),
      Rand({n, r, r}, 64)});
}

}  // namespace
}  // namespace autograd
}  // namespace metalora
