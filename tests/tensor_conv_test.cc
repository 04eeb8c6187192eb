#include "tensor/conv_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "tensor/conv_thin.h"
#include "tensor/gemm.h"
#include "tensor/gemm_detail.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace {

struct ConvCase {
  int64_t n, c, h, w, o, k, stride, pad;
};

class ConvGeometryTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometryTest, Im2ColConvMatchesDirect) {
  const ConvCase p = GetParam();
  Rng rng(static_cast<uint64_t>(p.k * 31 + p.stride * 7 + p.pad));
  Tensor x = RandomNormal(Shape{p.n, p.c, p.h, p.w}, rng);
  Tensor wgt = RandomNormal(Shape{p.o, p.c, p.k, p.k}, rng);
  Tensor bias = RandomNormal(Shape{p.o}, rng);
  ConvGeom g{p.k, p.k, p.stride, p.pad};
  Tensor fast = Conv2dForward(x, wgt, bias, g);
  Tensor ref = Conv2dDirect(x, wgt, bias, g);
  EXPECT_TRUE(AllClose(fast, ref, 1e-4f, 1e-4f))
      << "max diff " << MaxAbsDiff(fast, ref);
}

TEST_P(ConvGeometryTest, OutputShape) {
  const ConvCase p = GetParam();
  ConvGeom g{p.k, p.k, p.stride, p.pad};
  Tensor x = Tensor::Zeros(Shape{p.n, p.c, p.h, p.w});
  Tensor wgt = Tensor::Zeros(Shape{p.o, p.c, p.k, p.k});
  Tensor out = Conv2dForward(x, wgt, Tensor(), g);
  EXPECT_EQ(out.dim(0), p.n);
  EXPECT_EQ(out.dim(1), p.o);
  EXPECT_EQ(out.dim(2), g.OutExtent(p.h, p.k));
  EXPECT_EQ(out.dim(3), g.OutExtent(p.w, p.k));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometryTest,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 0},
                      ConvCase{2, 3, 8, 8, 4, 3, 1, 1},
                      ConvCase{1, 2, 9, 7, 3, 3, 2, 1},
                      ConvCase{2, 4, 6, 6, 2, 1, 1, 0},
                      ConvCase{1, 3, 8, 8, 5, 5, 1, 2},
                      ConvCase{3, 1, 10, 10, 2, 3, 2, 0}));

TEST(ConvOpsTest, KnownConvValue) {
  // 3x3 input, 2x2 kernel of ones, stride 1, no pad: sliding-window sums.
  Tensor x = Tensor::FromVector(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w = Tensor::Ones(Shape{1, 1, 2, 2});
  ConvGeom g{2, 2, 1, 0};
  Tensor y = Conv2dForward(x, w, Tensor(), g);
  EXPECT_EQ(y.ToVector(), (std::vector<float>{12, 16, 24, 28}));
}

TEST(ConvOpsTest, BiasIsAddedPerChannel) {
  Tensor x = Tensor::Zeros(Shape{1, 1, 2, 2});
  Tensor w = Tensor::Zeros(Shape{2, 1, 1, 1});
  Tensor b = Tensor::FromVector(Shape{2}, {1.5f, -2.0f});
  ConvGeom g{1, 1, 1, 0};
  Tensor y = Conv2dForward(x, w, b, g);
  EXPECT_EQ(y.at({0, 0, 1, 1}), 1.5f);
  EXPECT_EQ(y.at({0, 1, 0, 0}), -2.0f);
}

TEST(ConvOpsTest, Im2ColCol2ImAdjoint) {
  // <Im2Col(x), y> == <x, Col2Im(y)> — the operators are adjoint.
  Rng rng(5);
  const int64_t c = 2, h = 6, w = 5;
  ConvGeom g{3, 3, 2, 1};
  const int64_t ho = g.OutExtent(h, 3), wo = g.OutExtent(w, 3);
  Tensor x = RandomNormal(Shape{c, h, w}, rng);
  Tensor y = RandomNormal(Shape{c * 9, ho * wo}, rng);
  Tensor cols{Shape{c * 9, ho * wo}};
  Im2Col(x.data(), c, h, w, g, cols.data());
  Tensor xback{Shape{c, h, w}};
  Col2Im(y.data(), c, h, w, g, xback.data());
  double lhs = 0, rhs = 0;
  for (int64_t i = 0; i < cols.numel(); ++i)
    lhs += static_cast<double>(cols.flat(i)) * y.flat(i);
  for (int64_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x.flat(i)) * xback.flat(i);
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(PoolingTest, MaxPoolValuesAndArgmax) {
  Tensor x = Tensor::FromVector(Shape{1, 1, 4, 4},
                                {1, 2, 3, 4,
                                 5, 6, 7, 8,
                                 9, 10, 11, 12,
                                 13, 14, 15, 16});
  ConvGeom g{2, 2, 2, 0};
  std::vector<int64_t> argmax;
  Tensor y = MaxPool2d(x, g, &argmax);
  EXPECT_EQ(y.ToVector(), (std::vector<float>{6, 8, 14, 16}));
  EXPECT_EQ(argmax, (std::vector<int64_t>{5, 7, 13, 15}));
}

TEST(PoolingTest, MaxPoolBackwardScattersToArgmax) {
  Tensor x = Tensor::FromVector(Shape{1, 1, 2, 2}, {1, 9, 2, 3});
  ConvGeom g{2, 2, 2, 0};
  std::vector<int64_t> argmax;
  Tensor y = MaxPool2d(x, g, &argmax);
  Tensor gy = Tensor::Full(y.shape(), 2.0f);
  Tensor gx = MaxPool2dBackward(gy, x.shape(), argmax);
  EXPECT_EQ(gx.ToVector(), (std::vector<float>{0, 2, 0, 0}));
}

TEST(PoolingTest, AvgPoolValue) {
  Tensor x = Tensor::FromVector(Shape{1, 1, 2, 2}, {1, 3, 5, 7});
  ConvGeom g{2, 2, 2, 0};
  Tensor y = AvgPool2d(x, g);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_EQ(y.flat(0), 4.0f);
  Tensor gx = AvgPool2dBackward(Tensor::Full(y.shape(), 4.0f), x.shape(), g);
  EXPECT_EQ(gx.ToVector(), (std::vector<float>{1, 1, 1, 1}));
}

TEST(PoolingTest, GlobalAvgPool) {
  Tensor x = Tensor::FromVector(Shape{1, 2, 1, 2}, {1, 3, 10, 20});
  Tensor y = GlobalAvgPool(x);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_EQ(y.ToVector(), (std::vector<float>{2, 15}));
  Tensor gx = GlobalAvgPoolBackward(Tensor::FromVector(Shape{1, 2}, {2, 4}),
                                    x.shape());
  EXPECT_EQ(gx.ToVector(), (std::vector<float>{1, 1, 2, 2}));
}

// Bitwise float equality: ASSERT_EQ(float) would let -0 pass for +0.
uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectSameBits(const float* want, const float* got, int64_t count,
                    const std::string& what) {
  for (int64_t i = 0; i < count; ++i) {
    ASSERT_EQ(Bits(want[i]), Bits(got[i]))
        << what << " diverges at flat index " << i << ": " << want[i]
        << " vs " << got[i];
  }
}

// The serial route the conv kernels replace, built from its parts: per
// sample, Im2Col into materialized columns, the packed GEMMs over them,
// the bias (when defined) and Col2Im onto a zeroed plane.
struct RouteResult {
  Tensor out, gx, gw;
};

RouteResult SerialRoute(const Tensor& x, const Tensor& wgt, const Tensor& bias,
                        const Tensor& gy, const ConvGeom& g) {
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t o = wgt.dim(0);
  const int64_t rows = c * g.kernel_h * g.kernel_w;
  const int64_t s = gy.dim(2) * gy.dim(3);
  std::vector<float> cols(static_cast<size_t>(rows * s));
  std::vector<float> col_grad(cols.size());
  RouteResult r{Tensor::Zeros(gy.shape()), Tensor::Zeros(x.shape()),
                Tensor::Zeros(wgt.shape())};
  for (int64_t i = 0; i < n; ++i) {
    Im2Col(x.data() + i * c * h * w, c, h, w, g, cols.data());
    float* out_n = r.out.data() + i * o * s;
    GemmPacked(wgt.data(), false, cols.data(), false, out_n, o, rows, s,
               /*accumulate=*/true);
    for (int64_t oc = 0; bias.defined() && oc < o; ++oc) {
      for (int64_t j = 0; j < s; ++j) out_n[oc * s + j] += bias.flat(oc);
    }
    const float* gout = gy.data() + i * o * s;
    GemmPacked(gout, false, cols.data(), true, r.gw.data(), o, s, rows,
               /*accumulate=*/true);
    GemmPacked(wgt.data(), true, gout, false, col_grad.data(), rows, o, s,
               /*accumulate=*/false);
    Col2Im(col_grad.data(), c, h, w, g, r.gx.data() + i * c * h * w);
  }
  return r;
}

// The conv kernels lower each sample while the GEMM packs it (or read it
// straight from the padded image: the 16², 8² and 4² planes at stride 1)
// and fold the input gradient through a padded plane; forward,
// grad_weight and grad_input must be byte-equal to the serial route. The
// geometries cover kernels 1/3/5, strides 1-3, padding 0/1/2/k,
// non-square planes, output rows wider than one 16-column panel but not a
// multiple of it, planes smaller than the kernel (whole rows and columns
// of padding), one input channel, N of 1 and 3, and O below and above the
// 6-row micro-tile. Zeros of both signs in every operand check
// that the padded fold absorbs −0 exactly like Col2Im's +0 + col_grad.
TEST(ConvLoweringTest, MatchesIm2ColGemmCol2ImRouteBitwise) {
  struct Sizes {
    int64_t n, c, o;
  };
  const Sizes sizes[] = {{1, 1, 1}, {3, 1, 7}, {1, 3, 13}, {3, 2, 2}};
  const int64_t planes[][2] = {{7, 5},   {5, 9},   {2, 3}, {11, 21},
                               {18, 17}, {16, 16}, {8, 8}, {4, 4}};
  int checked = 0;
  for (int64_t k : {1, 3, 5}) {
    for (int64_t stride : {1, 2, 3}) {
      for (int64_t pad : {int64_t{0}, int64_t{1}, int64_t{2}, k}) {
        for (const auto& hw : planes) {
          for (const Sizes& sz : sizes) {
            const int64_t h = hw[0], w = hw[1];
            if (h + 2 * pad < k || w + 2 * pad < k) continue;  // no output
            const ConvGeom g{k, k, stride, pad};
            const int64_t ho = g.OutExtent(h, k), wo = g.OutExtent(w, k);
            const std::string what =
                "k=" + std::to_string(k) + " s=" + std::to_string(stride) +
                " p=" + std::to_string(pad) + " h=" + std::to_string(h) +
                " w=" + std::to_string(w) + " n=" + std::to_string(sz.n) +
                " c=" + std::to_string(sz.c) + " o=" + std::to_string(sz.o);
            Rng rng(static_cast<uint64_t>(checked + 1));
            Tensor x = RandomNormal(Shape{sz.n, sz.c, h, w}, rng);
            Tensor wgt = RandomNormal(Shape{sz.o, sz.c, k, k}, rng);
            Tensor bias = RandomNormal(Shape{sz.o}, rng);
            Tensor gy = RandomNormal(Shape{sz.n, sz.o, ho, wo}, rng);
            for (int64_t i = 0; i < x.numel(); i += 5) x.flat(i) = 0.0f;
            for (int64_t i = 2; i < x.numel(); i += 7) x.flat(i) = -0.0f;
            for (int64_t i = 1; i < wgt.numel(); i += 6) wgt.flat(i) = -0.0f;
            for (int64_t i = 0; i < gy.numel(); i += 3) gy.flat(i) = -0.0f;

            const RouteResult want = SerialRoute(x, wgt, bias, gy, g);
            Tensor out = Tensor::Zeros(gy.shape());
            Conv2dForwardInto(x, wgt, bias, g, &out);
            ExpectSameBits(want.out.data(), out.data(), out.numel(),
                           "forward " + what);
            Tensor gx = Tensor::Zeros(x.shape());
            Tensor gw = Tensor::Zeros(wgt.shape());
            Conv2dBackward(x, wgt, gy, g, &gx, &gw, nullptr);
            ExpectSameBits(want.gw.data(), gw.data(), gw.numel(),
                           "grad_weight " + what);
            ExpectSameBits(want.gx.data(), gx.data(), gx.numel(),
                           "grad_input " + what);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 500);
}

// Forward, grad_weight and grad_input of one case, byte-equal to the
// serial route.
void ExpectConvMatchesSerialRoute(int64_t n, int64_t c, int64_t o, int64_t h,
                                  int64_t w, const ConvGeom& g, uint64_t seed,
                                  const std::string& what) {
  Rng rng(seed);
  Tensor x = RandomNormal(Shape{n, c, h, w}, rng);
  Tensor wgt = RandomNormal(Shape{o, c, g.kernel_h, g.kernel_w}, rng);
  Tensor bias = RandomNormal(Shape{o}, rng);
  Tensor gy = RandomNormal(
      Shape{n, o, g.OutExtent(h, g.kernel_h), g.OutExtent(w, g.kernel_w)},
      rng);
  const RouteResult want = SerialRoute(x, wgt, bias, gy, g);
  Tensor out = Tensor::Zeros(gy.shape());
  Conv2dForwardInto(x, wgt, bias, g, &out);
  ExpectSameBits(want.out.data(), out.data(), out.numel(), "forward " + what);
  Tensor gx = Tensor::Zeros(x.shape()), gw = Tensor::Zeros(wgt.shape());
  Conv2dBackward(x, wgt, gy, g, &gx, &gw, nullptr);
  ExpectSameBits(want.gw.data(), gw.data(), gw.numel(), "grad_weight " + what);
  ExpectSameBits(want.gx.data(), gx.data(), gx.numel(), "grad_input " + what);
}

// The conv kernels pack the weight once per call for all N samples. With
// O = 100 > kGemmMC and C·Kh·Kw = 261 > kGemmKC, that pack spans several
// row blocks and two k blocks, and Wᵀ in the input-gradient GEMM does too.
TEST(ConvLoweringTest, WeightPackedOnceAcrossCacheBlocksBitwise) {
  static_assert(100 > kGemmMC && 29 * 3 * 3 > kGemmKC);
  ExpectConvMatchesSerialRoute(3, 29, 100, 9, 7, ConvGeom{3, 3, 1, 1}, 31,
                               "s=1 p=1");
  ExpectConvMatchesSerialRoute(3, 29, 100, 9, 7, ConvGeom{3, 3, 2, 0}, 32,
                               "s=2 p=0");
}

// A 1×1 output runs the blocked engine over one column per sample, byte
// for byte the serial route.
TEST(ConvLoweringTest, OneByOneOutputRunsTheEngineBitwise) {
  const ConvGeom g{3, 3, 1, 0};
  ExpectConvMatchesSerialRoute(3, 5, 7, 3, 3, g, 33, "1x1 output");
  Rng rng(34);
  Tensor x = RandomNormal(Shape{2, 5, 3, 3}, rng);
  Tensor wgt = RandomNormal(Shape{7, 5, 3, 3}, rng);
  Tensor out = Tensor::Zeros(Shape{2, 7, 1, 1});
  const int64_t before = PackedEngineRuns();
  Conv2dForwardInto(x, wgt, Tensor(), g, &out);
  EXPECT_EQ(PackedEngineRuns(), before + 2);
}

// One conv through the kernels against the serial route, byte for byte:
// the fp32 forward with no bias (a bias would hide the sign of a zero
// output) and the weight gradient alone, counting the blocked-engine GEMMs
// and the rank-thin routes each ran. x, W and gy hold zeros of both signs.
struct ProductRuns {
  int64_t forward_engine, forward_routes, wgrad_engine, wgrad_routes;
};

ProductRuns ExpectRankThinConvMatchesSerialRoute(int64_t n, int64_t c,
                                                 int64_t o, int64_t h,
                                                 int64_t w, const ConvGeom& g,
                                                 uint64_t seed,
                                                 const std::string& what) {
  Rng rng(seed);
  Tensor x = RandomNormal(Shape{n, c, h, w}, rng);
  Tensor wgt = RandomNormal(Shape{o, c, g.kernel_h, g.kernel_w}, rng);
  Tensor gy = RandomNormal(
      Shape{n, o, g.OutExtent(h, g.kernel_h), g.OutExtent(w, g.kernel_w)},
      rng);
  for (int64_t i = 0; i < x.numel(); i += 5) x.flat(i) = 0.0f;
  for (int64_t i = 2; i < x.numel(); i += 7) x.flat(i) = -0.0f;
  for (int64_t i = 1; i < wgt.numel(); i += 6) wgt.flat(i) = -0.0f;
  for (int64_t i = 0; i < gy.numel(); i += 3) gy.flat(i) = -0.0f;
  const RouteResult want = SerialRoute(x, wgt, Tensor(), gy, g);
  ProductRuns runs{};
  Tensor out = Tensor::Zeros(gy.shape());
  int64_t engine = PackedEngineRuns(), routes = conv_thin::RouteRuns();
  Conv2dForwardInto(x, wgt, Tensor(), g, &out);
  runs.forward_engine = PackedEngineRuns() - engine;
  runs.forward_routes = conv_thin::RouteRuns() - routes;
  ExpectSameBits(want.out.data(), out.data(), out.numel(), "forward " + what);
  Tensor gw = Tensor::Zeros(wgt.shape());
  engine = PackedEngineRuns();
  routes = conv_thin::RouteRuns();
  Conv2dBackward(x, wgt, gy, g, nullptr, &gw, nullptr);
  runs.wgrad_engine = PackedEngineRuns() - engine;
  runs.wgrad_routes = conv_thin::RouteRuns() - routes;
  ExpectSameBits(want.gw.data(), gw.data(), gw.numel(),
                 "grad_weight " + what);
  return runs;
}

// The rank-thin conv routes (conv_thin.h) take D's weight gradient (few
// rows: O ≤ 8), U's (few columns: C·Kh·Kw ≤ 8) and the forward of a
// shallow pointwise conv (C ≤ 32). O and C run over the ranks R ∈ {1, 2,
// 3, 8} and the widths 6, 13 and 32 around them (tails of the 8-lane
// vectors and 8-row blocks, several blocks), with kernels 1/3/5, strides
// 1/2, paddings 0/1/2, planes 16², 8², 4² and 7×5 (output rows not a
// multiple of 8), and N of 1 and 3 (a weight-gradient chain runs on across
// samples). Every product is byte-equal to the serial route; each routed
// one runs no engine GEMM, and each other one runs the engine per sample,
// so a route that silently fell back would fail here.
TEST(ConvLoweringTest, RankThinProductsMatchTheSerialRouteBitwise) {
  const int64_t planes[][2] = {{16, 16}, {8, 8}, {4, 4}, {7, 5}};
  int checked = 0, wgrad_routed = 0, forward_routed = 0;
  for (int64_t o : {1, 2, 3, 6, 8, 13, 32}) {
    for (int64_t c : {1, 2, 3, 8, 13, 32}) {
      for (int64_t k : {1, 3, 5}) {
        for (int64_t stride : {1, 2}) {
          for (int64_t pad : {0, 1, 2}) {
            for (const auto& hw : planes) {
              const int64_t h = hw[0], w = hw[1];
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              const int64_t n = checked % 2 == 0 ? 3 : 1;
              const ConvGeom g{k, k, stride, pad};
              const std::string what =
                  "o=" + std::to_string(o) + " c=" + std::to_string(c) +
                  " k=" + std::to_string(k) + " s=" + std::to_string(stride) +
                  " p=" + std::to_string(pad) + " h=" + std::to_string(h) +
                  " w=" + std::to_string(w) + " n=" + std::to_string(n);
              const ProductRuns runs = ExpectRankThinConvMatchesSerialRoute(
                  n, c, o, h, w, g, static_cast<uint64_t>(checked + 7), what);
              if (HasFatalFailure()) return;
              const bool forward_route = ConvIsPointwise(g);
              const bool wgrad_route = o <= 8 || c * k * k <= 8;
              EXPECT_EQ(runs.forward_routes, forward_route ? n : 0) << what;
              EXPECT_EQ(runs.forward_engine, forward_route ? 0 : n) << what;
              EXPECT_EQ(runs.wgrad_routes, wgrad_route ? n : 0) << what;
              EXPECT_EQ(runs.wgrad_engine, wgrad_route ? 0 : n) << what;
              forward_routed += forward_route;
              wgrad_routed += wgrad_route;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 2500);
  EXPECT_GT(forward_routed, 150);
  EXPECT_GT(wgrad_routed, 1500);
}

// Just past each limit the engine runs: 9 weight-gradient rows over 9
// columns (a 1×1 over 9 channels, and a 3×3 over one), a kernel 7 wide
// (the few-rows passes stop at 5) and a pointwise forward over 33
// channels. Just inside, the routes run: 8 rows, 8 columns and 32
// channels. All byte-equal to the serial route.
TEST(ConvLoweringTest, ProductsPastTheRankThinLimitsRunTheEngine) {
  struct Limit {
    int64_t o, c, k;
    bool wgrad_route;
  };
  const Limit limits[] = {{9, 9, 1, false}, {9, 1, 3, false},
                          {2, 1, 7, false}, {8, 9, 1, true},
                          {9, 8, 1, true},  {8, 2, 3, true}};
  for (const Limit& l : limits) {
    const ConvGeom g{l.k, l.k, 1, l.k / 2};
    const std::string what = "o=" + std::to_string(l.o) +
                             " c=" + std::to_string(l.c) +
                             " k=" + std::to_string(l.k);
    const ProductRuns runs =
        ExpectRankThinConvMatchesSerialRoute(2, l.c, l.o, 9, 8, g, 61, what);
    EXPECT_EQ(runs.wgrad_routes, l.wgrad_route ? 2 : 0) << what;
    EXPECT_EQ(runs.wgrad_engine, l.wgrad_route ? 0 : 2) << what;
  }
  for (int64_t c : {32, 33}) {
    const std::string what = "pointwise c=" + std::to_string(c);
    const ProductRuns runs = ExpectRankThinConvMatchesSerialRoute(
        2, c, 5, 6, 6, ConvGeom::Pointwise(), 62, what);
    EXPECT_EQ(runs.forward_routes, c <= 32 ? 2 : 0) << what;
    EXPECT_EQ(runs.forward_engine, c <= 32 ? 0 : 2) << what;
  }
}

// One conv forward with no bias against the serial route, byte for byte,
// into a NaN-filled output (every element must be written), counting the
// products it ran on the direct route and on the blocked engine (which
// runs the direct ones too). x and W hold zeros of both signs.
struct ForwardRuns {
  int64_t direct, engine;
};

ForwardRuns ExpectForwardMatchesSerialRoute(int64_t n, int64_t c, int64_t o,
                                            int64_t h, int64_t w,
                                            const ConvGeom& g, uint64_t seed,
                                            const std::string& what) {
  Rng rng(seed);
  Tensor x = RandomNormal(Shape{n, c, h, w}, rng);
  Tensor wgt = RandomNormal(Shape{o, c, g.kernel_h, g.kernel_w}, rng);
  for (int64_t i = 0; i < x.numel(); i += 5) x.flat(i) = 0.0f;
  for (int64_t i = 2; i < x.numel(); i += 7) x.flat(i) = -0.0f;
  for (int64_t i = 1; i < wgt.numel(); i += 6) wgt.flat(i) = -0.0f;
  const Shape out_shape{n, o, g.OutExtent(h, g.kernel_h),
                        g.OutExtent(w, g.kernel_w)};
  const RouteResult want =
      SerialRoute(x, wgt, Tensor(), Tensor::Zeros(out_shape), g);
  Tensor out =
      Tensor::Full(out_shape, std::numeric_limits<float>::quiet_NaN());
  const int64_t direct = gemm_detail::DirectIm2ColRuns();
  const int64_t engine = PackedEngineRuns();
  Conv2dForwardInto(x, wgt, Tensor(), g, &out);
  const ForwardRuns runs{gemm_detail::DirectIm2ColRuns() - direct,
                         PackedEngineRuns() - engine};
  ExpectSameBits(want.out.data(), out.data(), out.numel(), "forward " + what);
  return runs;
}

// The direct route reads a stride-1 conv's im2col panels straight
// from the padded image when they are whole runs of 4 floats (Wo % 4 == 0,
// Ho·Wo % 16 == 0): one 8-float load per panel half at output widths 8,
// 16 and 32, two quarters at 4 and 12. Widths 5 and 7, stride 2 and the
// partial last panels pack. Kernels 1/3/5, strides 1/2, paddings 0/1/2,
// C ∈ {1, 3, 8, 32}, O from 1 to 34 (the per-product few-row A of O ≤ 2,
// the shared packed weight over one to six row panels) and N alternating
// 1/3. Every forward is byte-equal to the serial route, and the counters
// show each product's route: direct, packed, or neither (conv_thin's
// pointwise forward).
TEST(ConvLoweringTest, DirectImageRouteMatchesTheSerialRouteBitwise) {
  const int64_t planes[][2] = {{16, 16}, {8, 8}, {4, 4}, {6, 12},
                               {4, 32},  {5, 5}, {7, 7}};
  const int64_t outs[] = {1, 2, 3, 6, 7, 10, 13, 18, 34};
  int checked = 0, direct = 0, packed = 0;
  for (const auto& hw : planes) {
    for (int64_t k : {1, 3, 5}) {
      for (int64_t stride : {1, 2}) {
        for (int64_t pad : {0, 1, 2}) {
          for (int64_t c : {1, 3, 8, 32}) {
            const int64_t h = hw[0], w = hw[1];
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            const ConvGeom g{k, k, stride, pad};
            const int64_t ho = g.OutExtent(h, k), wo = g.OutExtent(w, k);
            const int64_t o = outs[checked % std::size(outs)];
            const int64_t n = checked % 2 == 0 ? 3 : 1;
            const std::string what =
                "k=" + std::to_string(k) + " s=" + std::to_string(stride) +
                " p=" + std::to_string(pad) + " h=" + std::to_string(h) +
                " w=" + std::to_string(w) + " c=" + std::to_string(c) +
                " o=" + std::to_string(o) + " n=" + std::to_string(n);
            const ForwardRuns runs = ExpectForwardMatchesSerialRoute(
                n, c, o, h, w, g, static_cast<uint64_t>(checked + 71), what);
            if (HasFatalFailure()) return;
            const bool pointwise = ConvIsPointwise(g);  // C ≤ 32: conv_thin
            const bool takes = !pointwise && stride == 1 && wo % 4 == 0 &&
                               ho * wo % kGemmNR == 0;
            EXPECT_EQ(runs.direct, takes ? n : 0) << what;
            EXPECT_EQ(runs.engine, pointwise ? 0 : n) << what;
            direct += takes;
            packed += !takes && !pointwise;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 400);
  EXPECT_GT(direct, 50);
  EXPECT_GT(packed, 150);
}

// Off the direct route the engine packs its panels, byte for byte too:
// stride 2 over output rows of 8, a partial last panel (20 columns), an
// output width of 6. Just inside, stride 1 at the same planes (and 32
// columns of width 4) read the image.
TEST(ConvLoweringTest, ProductsOffTheDirectRoutePackTheirPanels) {
  struct Case {
    int64_t h, w;
    ConvGeom g;
    bool direct;
    const char* what;
  };
  const Case cases[] = {
      {16, 16, {3, 3, 2, 1}, false, "stride 2, wo = 8"},
      {16, 16, {3, 3, 1, 1}, true, "stride 1, wo = 16"},
      {5, 4, {3, 3, 1, 1}, false, "wo = 4, 20 columns"},
      {8, 4, {3, 3, 1, 1}, true, "wo = 4, 32 columns"},
      {8, 6, {3, 3, 1, 1}, false, "wo = 6, 48 columns"},
  };
  for (const Case& t : cases) {
    const ForwardRuns runs =
        ExpectForwardMatchesSerialRoute(2, 8, 10, t.h, t.w, t.g, 81, t.what);
    EXPECT_EQ(runs.direct, t.direct ? 2 : 0) << t.what;
    EXPECT_EQ(runs.engine, 2) << t.what;
  }
}

// [a[i]; b[i]] for every sample i of a [N, A, ...] and b [N, B, ...] with
// the same trailing shape: the row-stack the stacked kernels contract.
Tensor StackSamples(const Tensor& a, const Tensor& b) {
  const int64_t n = a.dim(0);
  const int64_t la = a.numel() / n, lb = b.numel() / n;
  std::vector<int64_t> dims = a.shape().dims();
  dims[1] = a.dim(1) + b.dim(1);
  Tensor out{Shape(dims)};
  float* dst = out.data();
  for (int64_t i = 0; i < n; ++i) {
    dst = std::copy(a.data() + i * la, a.data() + (i + 1) * la, dst);
    dst = std::copy(b.data() + i * lb, b.data() + (i + 1) * lb, dst);
  }
  return out;
}

// The row-stacked kernels over [W; D], as an adapted conv runs its base
// weight and down-projection: every row of the outputs and of both
// weight gradients, and the bias gradient, equal separate
// one-weight calls byte for byte, with W's gradient wanted, frozen, or
// alone. The stacked input gradient equals the Im2Col → GEMM → Col2Im
// route over the stacked weight and output gradient. Kernels 1×1 and 3×3,
// strides 1 and 2, padding 0 and 1, R' = 1, 2, 4 and 9 (O + R' = 16
// crosses a 6-row panel boundary that O = 7 alone does not), N = 1 and
// 3, and 1×1 outputs (S = 1: the input gradient's GEMV route).
TEST(ConvStackTest, StackedKernelsMatchOneWeightCallsBitwise) {
  const int64_t c = 3, o = 7;
  const int64_t planes[][2] = {{6, 5}, {3, 3}, {1, 1}};
  int checked = 0, one_by_one = 0;
  for (int64_t k : {1, 3}) {
    for (int64_t stride : {1, 2}) {
      for (int64_t pad : {0, 1}) {
        for (const auto& hw : planes) {
          for (int64_t r : {1, 2, 4, 9}) {
            for (int64_t n : {1, 3}) {
              const int64_t h = hw[0], w = hw[1];
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              const ConvGeom g{k, k, stride, pad};
              const int64_t ho = g.OutExtent(h, k), wo = g.OutExtent(w, k);
              const std::string what =
                  "k=" + std::to_string(k) + " s=" + std::to_string(stride) +
                  " p=" + std::to_string(pad) + " h=" + std::to_string(h) +
                  " w=" + std::to_string(w) + " r=" + std::to_string(r) +
                  " n=" + std::to_string(n);
              Rng rng(static_cast<uint64_t>(checked + 101));
              Tensor x = RandomNormal(Shape{n, c, h, w}, rng);
              Tensor wgt = RandomNormal(Shape{o, c, k, k}, rng);
              Tensor down = RandomNormal(Shape{r, c, k, k}, rng);
              Tensor bias = RandomNormal(Shape{o}, rng);
              Tensor gy = RandomNormal(Shape{n, o, ho, wo}, rng);
              Tensor gh = RandomNormal(Shape{n, r, ho, wo}, rng);
              for (int64_t i = 2; i < x.numel(); i += 7) x.flat(i) = -0.0f;
              for (int64_t i = 1; i < gh.numel(); i += 5) gh.flat(i) = -0.0f;
              const Tensor* weights[] = {&wgt, &down};

              Tensor y_one{gy.shape()}, h_one{gh.shape()};
              Conv2dForwardInto(x, wgt, bias, g, &y_one);
              Conv2dForwardInto(x, down, Tensor(), g, &h_one);
              // NaN-filled outputs: the stacked kernel must write them whole.
              const float nan = std::numeric_limits<float>::quiet_NaN();
              Tensor y = Tensor::Full(gy.shape(), nan);
              Tensor hd = Tensor::Full(gh.shape(), nan);
              Tensor* outs[] = {&y, &hd};
              Conv2dForwardInto(x, weights, bias, g, outs);
              ExpectSameBits(y_one.data(), y.data(), y.numel(), "y " + what);
              ExpectSameBits(h_one.data(), hd.data(), hd.numel(), "h " + what);

              Tensor gw_one = Tensor::Zeros(wgt.shape());
              Tensor gd_one = Tensor::Zeros(down.shape());
              Tensor gb_one = Tensor::Zeros(bias.shape());
              Conv2dBackward(x, wgt, gy, g, nullptr, &gw_one, &gb_one);
              Conv2dBackward(x, down, gh, g, nullptr, &gd_one, nullptr);
              const Tensor* grad_outputs[] = {&gy, &gh};
              const Tensor wstack = StackSamples(
                  wgt.Reshape(Shape{1, o, c * k * k}),
                  down.Reshape(Shape{1, r, c * k * k}))
                                        .Reshape(Shape{o + r, c, k, k});
              const RouteResult route =
                  SerialRoute(x, wstack, Tensor::Zeros(Shape{o + r}),
                              StackSamples(gy, gh), g);
              for (int wanted = 0; wanted < 3; ++wanted) {
                // Both weight gradients, D's alone (a frozen base) and W's
                // alone.
                Tensor gx = Tensor::Zeros(x.shape());
                Tensor gw = Tensor::Zeros(wgt.shape());
                Tensor gd = Tensor::Zeros(down.shape());
                Tensor gb = Tensor::Zeros(bias.shape());
                Tensor* grad_weights[] = {wanted != 1 ? &gw : nullptr,
                                          wanted != 2 ? &gd : nullptr};
                Conv2dBackward(x, weights, grad_outputs, g, &gx, grad_weights,
                               &gb);
                const std::string tag =
                    " (wanted " + std::to_string(wanted) + ") " + what;
                if (wanted != 1) {
                  ExpectSameBits(gw_one.data(), gw.data(), gw.numel(),
                                 "grad W" + tag);
                }
                if (wanted != 2) {
                  ExpectSameBits(gd_one.data(), gd.data(), gd.numel(),
                                 "grad D" + tag);
                }
                ExpectSameBits(gb_one.data(), gb.data(), gb.numel(),
                               "grad bias" + tag);
                ExpectSameBits(route.gx.data(), gx.data(), gx.numel(),
                               "grad input" + tag);
              }
              one_by_one += ho * wo == 1;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 100);
  EXPECT_GT(one_by_one, 10);
}

TEST(ConvBackwardTest, GradBiasIsOutputSum) {
  Rng rng(8);
  Tensor x = RandomNormal(Shape{2, 2, 5, 5}, rng);
  Tensor w = RandomNormal(Shape{3, 2, 3, 3}, rng);
  ConvGeom g{3, 3, 1, 1};
  Tensor y = Conv2dForward(x, w, Tensor(), g);
  Tensor gy = Tensor::Ones(y.shape());
  Tensor gx = Tensor::Zeros(x.shape()), gw = Tensor::Zeros(w.shape()),
         gb = Tensor::Zeros(Shape{3});
  Conv2dBackward(x, w, gy, g, &gx, &gw, &gb);
  // With unit upstream grad, grad_bias[o] = count of output positions.
  const float expected = static_cast<float>(2 * 5 * 5);
  for (int64_t o = 0; o < 3; ++o) EXPECT_NEAR(gb.flat(o), expected, 1e-3);
  EXPECT_EQ(gx.shape(), x.shape());
  EXPECT_EQ(gw.shape(), w.shape());
}

}  // namespace
}  // namespace metalora
