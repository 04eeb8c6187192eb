#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/conv_ops.h"
#include "tensor/gemm_detail.h"
#include "tensor/matmul.h"
#include "tensor/random_init.h"
#include "tensor/tensor.h"

namespace metalora {
namespace {

// The engine's contract is *bit* identity with the serial reference, not
// approximate agreement: both run the same per-element chain in k order
// (fused on the AVX2+FMA ISA, mul-then-add on the portable one), so any
// divergence is a packing, tail-handling or dispatch bug.
void ExpectBitIdentical(const std::vector<float>& ref,
                        const std::vector<float>& got,
                        const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i], got[i]) << what << " diverges at flat index " << i;
  }
}

void CheckShape(int64_t n, int64_t k, int64_t m, bool trans_a, bool trans_b,
                bool accumulate) {
  Rng rng(static_cast<uint64_t>(n * 10007 + k * 101 + m * 7 +
                                (trans_a ? 2 : 0) + (trans_b ? 1 : 0)));
  Tensor a = RandomNormal(trans_a ? Shape{k, n} : Shape{n, k}, rng);
  Tensor b = RandomNormal(trans_b ? Shape{m, k} : Shape{k, m}, rng);
  Tensor seed = RandomNormal(Shape{n, m}, rng);
  Tensor c_ref = seed.Clone();
  Tensor c_packed = seed.Clone();
  GemmReference(a.data(), trans_a, b.data(), trans_b, c_ref.data(), n, k, m,
                accumulate);
  GemmPacked(a.data(), trans_a, b.data(), trans_b, c_packed.data(), n, k, m,
             accumulate);
  const std::string what = "n=" + std::to_string(n) + " k=" +
                           std::to_string(k) + " m=" + std::to_string(m) +
                           (trans_a ? " transA" : "") +
                           (trans_b ? " transB" : "") +
                           (accumulate ? " accumulate" : "");
  ExpectBitIdentical(c_ref.ToVector(), c_packed.ToVector(), what);
}

// Odd extents straddle every tail path: sub-MR row panels, sub-NR column
// panels, single-element edges, and extents just below/above the 64-ish
// cache-line multiples (63, 65).
constexpr int64_t kOddExtents[] = {1, 3, 7, 17, 63, 65};

TEST(GemmPackedTest, OddShapesAllLayoutsBitIdentical) {
  for (int64_t n : kOddExtents) {
    for (int64_t k : kOddExtents) {
      for (int64_t m : kOddExtents) {
        for (int layout = 0; layout < 4; ++layout) {
          CheckShape(n, k, m, (layout & 2) != 0, (layout & 1) != 0,
                     /*accumulate=*/false);
        }
      }
    }
  }
}

TEST(GemmPackedTest, OddShapesAccumulateBitIdentical) {
  for (int64_t n : kOddExtents) {
    for (int64_t m : kOddExtents) {
      for (int layout = 0; layout < 4; ++layout) {
        CheckShape(n, /*k=*/17, m, (layout & 2) != 0, (layout & 1) != 0,
                   /*accumulate=*/true);
      }
    }
  }
}

TEST(GemmPackedTest, BlockedShapesCrossPanelBoundaries) {
  // Extents spanning multiple KC/MC/NC/NR blocks so k-panel store/reload,
  // B-panel reuse and the column-block offset into C are exercised
  // (KC=256, MC=96, NC=1024, NR=16).
  CheckShape(97, 257, 33, false, false, false);
  CheckShape(97, 257, 33, false, false, true);
  CheckShape(192, 300, 17, true, false, false);
  CheckShape(13, 513, 160, false, true, false);
  // m past kGemmNC: a second column block with a partial NR panel.
  CheckShape(7, 300, kGemmNC + 19, false, false, true);
}

TEST(GemmPackedTest, LoraAdapterShapes) {
  // Rank-R adapter projections as run by the LoRA chain (core::TnAdapter): x[b,d]·Aᵀ[d,r] down,
  // then ·Bᵀ[r,d] up, including rank 1 (the GEMV-shaped edge).
  for (int64_t rank : {1, 2, 4, 8}) {
    CheckShape(/*n=*/33, /*k=*/129, /*m=*/rank, false, true, false);
    CheckShape(/*n=*/33, /*k=*/rank, /*m=*/129, false, true, false);
  }
}

TEST(GemmPackedTest, OneRowRunsAsGemvOnTheCaller) {
  // n == 1 is a GEMV over op(B)ᵀ: bit-identical to the reference in every
  // layout, with k past one kGemmKC panel so the blocked path's
  // partial-sum reload would be in play, and without a run of the blocked
  // engine.
  for (int64_t k : {int64_t{1}, int64_t{37}, kGemmKC + 45}) {
    for (int64_t m : {int64_t{2}, int64_t{33}, int64_t{1024}}) {
      for (int layout = 0; layout < 4; ++layout) {
        for (bool accumulate : {false, true}) {
          const int64_t before = PackedEngineRuns();
          CheckShape(/*n=*/1, k, m, (layout & 2) != 0, (layout & 1) != 0,
                     accumulate);
          EXPECT_EQ(PackedEngineRuns(), before);
        }
      }
    }
  }
}

// The routing rule for rank-thin products (tensor/gemm.cc): one GEMV per
// column of C for an op(B) of at most 4 columns when A is stored [k, n]
// (2 when A is row-major), one GEMV over op(B)ᵀ per row of C for a single
// row, or for 2 rows when B is stored [k, m].
bool ThinColumns(int64_t m, bool trans_a) { return m <= (trans_a ? 4 : 2); }
bool RunsAsGemv(int64_t n, int64_t m, bool trans_a, bool trans_b) {
  return ThinColumns(m, trans_a) || n == 1 || (n == 2 && !trans_b);
}

// Rank-thin products with n or m in 1..4, in every layout, with and
// without accumulation, across a kGemmKC panel and with
// extents that hit every GEMV block and tail: bit-identical to the
// reference, and the blocked engine runs exactly when the routing rule
// says. A PackAOnce operand of a thin run packs nothing and routes the
// same way.
TEST(GemmPackedTest, RankThinShapesRunAsGemvChains) {
  for (int64_t thin : {1, 2, 3, 4}) {
    for (int64_t wide : {int64_t{1}, int64_t{7}, int64_t{15}, int64_t{40},
                         kGemmKC + 45}) {
      for (int64_t k : {int64_t{1}, int64_t{17}, kGemmKC + 3}) {
        for (int layout = 0; layout < 4; ++layout) {
          for (bool accumulate : {false, true}) {
            const bool ta = (layout & 2) != 0, tb = (layout & 1) != 0;
            for (const auto& [n, m] : {std::pair{wide, thin},
                                       std::pair{thin, wide}}) {
              const int64_t before = PackedEngineRuns();
              CheckShape(n, k, m, ta, tb, accumulate);
              EXPECT_EQ(PackedEngineRuns() - before,
                        RunsAsGemv(n, m, ta, tb) ? 0 : 1)
                  << "n=" << n << " k=" << k << " m=" << m << " ta=" << ta
                  << " tb=" << tb;
            }
          }
        }
      }
    }
  }
  Rng rng(5);
  for (const auto& [n, m] :
       {std::pair<int64_t, int64_t>{13, 3}, {2, 40}, {13, 40}}) {
    const int64_t k = 29;
    for (int layout = 0; layout < 4; ++layout) {
      for (bool accumulate : {false, true}) {
        const bool ta = (layout & 2) != 0, tb = (layout & 1) != 0;
        Tensor a = RandomNormal(ta ? Shape{k, n} : Shape{n, k}, rng);
        Tensor b = RandomNormal(tb ? Shape{m, k} : Shape{k, m}, rng);
        Tensor c_ref = RandomNormal(Shape{n, m}, rng);
        Tensor c_got = c_ref.Clone();
        GemmReference(a.data(), ta, b.data(), tb, c_ref.data(), n, k, m,
                      accumulate);
        const int64_t before = PackedEngineRuns();
        const gemm_detail::PackedA packed =
            gemm_detail::PackAOnce(a.data(), ta, n, k, m);
        EXPECT_EQ(packed.panels == nullptr, ThinColumns(m, ta) || n <= 2);
        gemm_detail::GemmPacked(packed, b.data(), tb, c_got.data(), m,
                                accumulate);
        EXPECT_EQ(PackedEngineRuns() - before,
                  RunsAsGemv(n, m, ta, tb) ? 0 : 1);
        ExpectBitIdentical(c_ref.ToVector(), c_got.ToVector(),
                           "PackAOnce n=" + std::to_string(n) +
                               " m=" + std::to_string(m) +
                               " layout=" + std::to_string(layout));
      }
    }
  }
}

TEST(GemmPackedTest, KZeroZeroFillsOrPreserves) {
  Tensor c = Tensor::Ones(Shape{3, 5});
  GemmPacked(nullptr, false, nullptr, false, c.data(), 3, 0, 5,
             /*accumulate=*/true);
  EXPECT_EQ(c.ToVector(), Tensor::Ones(Shape{3, 5}).ToVector());
  GemmPacked(nullptr, false, nullptr, false, c.data(), 3, 0, 5,
             /*accumulate=*/false);
  EXPECT_EQ(c.ToVector(), std::vector<float>(15, 0.0f));
}

// Every kernel runs on its caller's thread: with the global pool live, no
// GEMM, GEMV or conv enters ParallelFor or hands a task to a worker, at
// shapes where the kernels once split their rows across the pool. (On a
// one-core host the pool has no workers and the ParallelFor count alone
// guards this.) Along the way, every fp32 layout and facade still runs
// the blocked engine, the large MatVec still runs as a GEMV, and every
// product stays bit-identical to its reference.
TEST(GemmThreadingTest, KernelsNeverTouchThePool) {
  GlobalThreadPool();
  const int64_t calls = ThreadPool::TotalParallelForCalls();
  const int64_t tasks = ThreadPool::TotalTasksScheduled();
  const int64_t n = 200, k = 64, m = 48;

  for (int layout = 0; layout < 4; ++layout) {
    const int64_t runs = PackedEngineRuns();
    CheckShape(n, k, m, (layout & 2) != 0, (layout & 1) != 0, false);
    EXPECT_EQ(PackedEngineRuns(), runs + 1) << "layout " << layout;
  }
  Rng rng(11);
  Tensor a = RandomNormal(Shape{n, k}, rng);
  Tensor at = RandomNormal(Shape{k, n}, rng);
  Tensor b = RandomNormal(Shape{k, m}, rng);
  Tensor bt = RandomNormal(Shape{m, k}, rng);
  int64_t runs = PackedEngineRuns();
  Matmul(a, b);
  MatmulTransB(a, bt);
  Tensor c = MatmulTransA(at, b);
  EXPECT_EQ(PackedEngineRuns(), runs + 3);
  Tensor c_ref{Shape{n, m}};
  GemmReference(at.data(), true, b.data(), false, c_ref.data(), n, k, m,
                false);
  ExpectBitIdentical(c_ref.ToVector(), c.ToVector(), "MatmulTransA facade");

  Tensor a_big = RandomNormal(Shape{1024, 512}, rng);
  Tensor x_big = RandomNormal(Shape{512}, rng);
  runs = PackedEngineRuns();
  Tensor y_big = MatVec(a_big, x_big);
  EXPECT_EQ(PackedEngineRuns(), runs);
  Tensor y_big_ref{Shape{1024}};
  GemmReference(a_big.data(), false, x_big.data(), false, y_big_ref.data(),
                1024, 512, 1, false);
  ExpectBitIdentical(y_big_ref.ToVector(), y_big.ToVector(), "large MatVec");

  // O = 100 output channels exceed one kGemmMC row block.
  const ConvGeom g{3, 3, 1, 1};
  Tensor x = RandomNormal(Shape{2, 29, 9, 7}, rng);
  Tensor w = RandomNormal(Shape{100, 29, 3, 3}, rng);
  Tensor y = Conv2dForward(x, w, Tensor(), g);
  Tensor gx = Tensor::Zeros(x.shape()), gw = Tensor::Zeros(w.shape());
  Conv2dBackward(x, w, Tensor::Ones(y.shape()), g, &gx, &gw, nullptr);

  EXPECT_EQ(ThreadPool::TotalParallelForCalls(), calls);
  EXPECT_EQ(ThreadPool::TotalTasksScheduled(), tasks);
}

// The ISA is picked from cpuid at run time: a build that carries the
// AVX2+FMA clones must use them whenever the CPU has both features.
TEST(GemmDispatchTest, SelectsAvx2FmaWhenCpuSupportsIt) {
#if defined(METALORA_DISABLE_AVX2) || !(defined(__x86_64__) || defined(__i386__))
  GTEST_SKIP() << "this build carries no AVX2+FMA kernels";
#else
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    GTEST_SKIP() << "cpuid reports no avx2+fma";
  }
  EXPECT_EQ(ActiveGemmIsa(), GemmIsa::kAvx2Fma)
      << "cpu has avx2+fma but the GEMM runs "
      << GemmIsaName(ActiveGemmIsa());
#endif
}

// Every fp32 path follows the one ISA decision: with a = b = 1 + 2^-12 and
// an accumulator of -1, a fused step keeps the 2^-24 term of a·b that a
// separate multiply rounds away. The reference, the GEMV path and the
// packed engine must all land on the value of the active ISA.
TEST(GemmDispatchTest, ReferenceGemvAndPackedFollowTheActiveIsa) {
  const float a_val = 1.0f + 0x1p-12f;
  const float fused = 0x1p-11f + 0x1p-24f;
  const float unfused = 0x1p-11f;
  const float want =
      ActiveGemmIsa() == GemmIsa::kAvx2Fma ? fused : unfused;
  const int64_t n = 7, m = 17;  // packed: a full tile plus tails
  for (int64_t cols : {int64_t{1}, m}) {
    std::vector<float> a(static_cast<size_t>(n), a_val);
    std::vector<float> b(static_cast<size_t>(cols), a_val);
    std::vector<float> c_ref(static_cast<size_t>(n * cols), -1.0f);
    std::vector<float> c_packed = c_ref;
    GemmReference(a.data(), false, b.data(), false, c_ref.data(), n, 1, cols,
                  /*accumulate=*/true);
    GemmPacked(a.data(), false, b.data(), false, c_packed.data(), n, 1, cols,
               /*accumulate=*/true);
    for (size_t i = 0; i < c_ref.size(); ++i) {
      ASSERT_EQ(c_ref[i], want) << "reference, m=" << cols << " at " << i;
      ASSERT_EQ(c_packed[i], want) << "packed, m=" << cols << " at " << i;
    }
  }
}

// Conv-as-GEMM: unfold real padded/strided geometries with the Im2Col
// oracle, then drive the packed engine over the materialized column
// matrices (accumulating into a zeroed output). That is the serial route
// the conv kernels' pack-time lowering must match byte for byte
// (tensor_conv_test's ConvLoweringTest).
TEST(GemmConvTest, PaddedStridedGeometriesBitIdentical) {
  struct Geo {
    int64_t c, h, w, o;
    ConvGeom g;
  };
  const Geo geos[] = {
      {3, 9, 9, 5, {3, 3, 1, 1}},   // same-size 3x3
      {2, 11, 7, 4, {3, 3, 2, 1}},  // strided, rectangular input
      {1, 8, 8, 3, {5, 5, 1, 2}},   // large kernel, heavy padding
      {4, 7, 7, 6, {1, 1, 2, 0}},   // pointwise strided
  };
  Rng rng(21);
  for (const Geo& geo : geos) {
    const int64_t oh = geo.g.OutExtent(geo.h, geo.g.kernel_h);
    const int64_t ow = geo.g.OutExtent(geo.w, geo.g.kernel_w);
    const int64_t col_rows = geo.c * geo.g.kernel_h * geo.g.kernel_w;
    const int64_t col_cols = oh * ow;
    Tensor input = RandomNormal(Shape{geo.c, geo.h, geo.w}, rng);
    Tensor weight = RandomNormal(Shape{geo.o, col_rows}, rng);
    Tensor columns{Shape{col_rows, col_cols}};
    Im2Col(input.data(), geo.c, geo.h, geo.w, geo.g, columns.data());

    Tensor out_ref{Shape{geo.o, col_cols}};
    Tensor out_packed{Shape{geo.o, col_cols}};
    GemmReference(weight.data(), false, columns.data(), false, out_ref.data(),
                  geo.o, col_rows, col_cols, /*accumulate=*/true);
    GemmPacked(weight.data(), false, columns.data(), false, out_packed.data(),
               geo.o, col_rows, col_cols, /*accumulate=*/true);
    ExpectBitIdentical(
        out_ref.ToVector(), out_packed.ToVector(),
        "conv gemm c=" + std::to_string(geo.c) + " k=" +
            std::to_string(geo.g.kernel_h) + " s=" +
            std::to_string(geo.g.stride) + " p=" +
            std::to_string(geo.g.padding));
  }
}

// The zero-padded image [c, h + 2p, w + 2p] an im2col operand reads.
Tensor PadImage(const Tensor& x, int64_t p) {
  const int64_t c = x.dim(0), h = x.dim(1), w = x.dim(2);
  Tensor out = Tensor::Zeros(Shape{c, h + 2 * p, w + 2 * p});
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t i = 0; i < h; ++i) {
      for (int64_t j = 0; j < w; ++j) {
        out.flat((ch * (h + 2 * p) + i + p) * (w + 2 * p) + j + p) =
            x.flat((ch * h + i) * w + j);
      }
    }
  }
  return out;
}

gemm_detail::Im2ColOperand OperandOf(const Tensor& padded, int64_t h,
                                     int64_t w, const ConvGeom& g) {
  return {padded.data(),
          padded.dim(0),
          padded.dim(1),
          padded.dim(2),
          g.kernel_h,
          g.kernel_w,
          g.stride,
          g.OutExtent(h, g.kernel_h),
          g.OutExtent(w, g.kernel_w)};
}

// The engine's im2col packer against the per-element gather
// (PackIm2ColB), byte for byte, over whole panels including their zero
// padding. With trans_b at stride 1 it packs by register transposes of
// image runs; the blocks below start mid output-row (pc), end mid-row and
// mid-transpose (kc), start mid-panel (jc) and leave column tails (nc) on
// both sides of a transpose group. Stride 2 and trans_b off keep the
// gather and must match it too.
TEST(GemmConvTest, TransposedWeightGradientPanelsMatchTheGather) {
  struct Geo {
    int64_t c, h, w;
    ConvGeom g;
  };
  const Geo geos[] = {
      {1, 5, 5, {3, 3, 1, 1}},    {3, 9, 7, {3, 3, 1, 1}},
      {2, 16, 16, {3, 3, 1, 1}},  {4, 7, 11, {1, 1, 1, 0}},
      {5, 6, 19, {1, 1, 1, 1}},   {3, 10, 12, {3, 3, 1, 0}},
      {3, 9, 9, {3, 3, 2, 1}},    {2, 12, 10, {3, 3, 2, 0}},
      {8, 16, 16, {3, 3, 1, 1}},
  };
  Rng rng(41);
  for (const Geo& geo : geos) {
    const Tensor padded = PadImage(
        RandomNormal(Shape{geo.c, geo.h, geo.w}, rng), geo.g.padding);
    const gemm_detail::Im2ColOperand op =
        OperandOf(padded, geo.h, geo.w, geo.g);
    for (bool trans_b : {true, false}) {
      const int64_t k = trans_b ? op.cols() : op.rows();
      const int64_t m = trans_b ? op.rows() : op.cols();
      for (int64_t pc : {int64_t{0}, int64_t{1}, op.wo - 1, op.wo + 3}) {
        for (int64_t kc : {int64_t{1}, int64_t{7}, int64_t{9}, int64_t{17},
                           k - pc}) {
          for (int64_t jc : {int64_t{0}, int64_t{1}, int64_t{5}}) {
            for (int64_t nc : {int64_t{3}, int64_t{9}, int64_t{17},
                               int64_t{33}, m - jc}) {
              if (pc >= k || kc < 1 || pc + kc > k || jc >= m || nc < 1 ||
                  jc + nc > m) {
                continue;
              }
              const int64_t len = (nc + kGemmNR - 1) / kGemmNR * kc * kGemmNR;
              std::vector<float> want(static_cast<size_t>(len), 7.0f);
              std::vector<float> got(static_cast<size_t>(len), -7.0f);
              gemm_detail::PackIm2ColB(op, trans_b, pc, kc, jc, nc,
                                       want.data());
              gemm_detail::PackIm2ColBFast(op, trans_b, pc, kc, jc, nc,
                                           got.data());
              ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                    want.size() * sizeof(float)),
                        0)
                  << "c=" << geo.c << " h=" << geo.h << " w=" << geo.w
                  << " k=" << geo.g.kernel_h << " s=" << geo.g.stride
                  << " p=" << geo.g.padding << " trans_b=" << trans_b
                  << " pc=" << pc << " kc=" << kc << " jc=" << jc
                  << " nc=" << nc;
            }
          }
        }
      }
    }
  }
}

// Rank-thin im2col products run the blocked engine, from a dense op(A)
// and from a PackAOnce one, whether op(B) is a thin cols (a conv with 4 or
// 3 output positions) or a thin colsᵀ (trans_b: a weight gradient with few
// (c, kh, kw) rows, which Conv2dBackward gives to conv_thin's kernels
// instead): bit-identical to the reference over Im2Col's materialized
// columns, with one engine run per product.
TEST(GemmConvTest, RankThinIm2ColProductsRunTheEngine) {
  struct Geo {
    int64_t c, h, w;
    ConvGeom g;
    bool trans_b;
  };
  const Geo geos[] = {
      {1, 6, 5, ConvGeom::Pointwise(), true},
      {2, 7, 7, ConvGeom::Pointwise(), true},
      {4, 5, 9, ConvGeom::Pointwise(), true},
      {3, 7, 6, {1, 1, 2, 1}, true},
      {2, 4, 4, {3, 3, 1, 0}, false},  // 2×2 output positions
      {3, 5, 3, {3, 3, 1, 0}, false},  // 3×1
      {2, 3, 3, {3, 3, 1, 1}, false},  // 3×3: 9 columns, the engine
  };
  Rng rng(43);
  for (const Geo& geo : geos) {
    const Tensor x = RandomNormal(Shape{geo.c, geo.h, geo.w}, rng);
    const Tensor padded = PadImage(x, geo.g.padding);
    const gemm_detail::Im2ColOperand op =
        OperandOf(padded, geo.h, geo.w, geo.g);
    Tensor cols{Shape{op.rows(), op.cols()}};
    Im2Col(x.data(), geo.c, geo.h, geo.w, geo.g, cols.data());
    const int64_t k = geo.trans_b ? op.cols() : op.rows();
    const int64_t m = geo.trans_b ? op.rows() : op.cols();
    for (int64_t n : {1, 2, 8, 13}) {
      for (bool trans_a : {false, true}) {
        for (bool accumulate : {false, true}) {
          const Tensor a =
              RandomNormal(trans_a ? Shape{k, n} : Shape{n, k}, rng);
          Tensor c_ref = RandomNormal(Shape{n, m}, rng);
          Tensor c_dense = c_ref.Clone(), c_shared = c_ref.Clone();
          GemmReference(a.data(), trans_a, cols.data(), geo.trans_b,
                        c_ref.data(), n, k, m, accumulate);
          const int64_t before = PackedEngineRuns();
          gemm_detail::GemmPackedIm2Col(a.data(), trans_a, op, geo.trans_b,
                                        c_dense.data(), n, accumulate);
          gemm_detail::GemmPackedIm2Col(
              gemm_detail::PackAOnce(a.data(), trans_a, n, k, m), op,
              geo.trans_b, c_shared.data(), accumulate);
          EXPECT_EQ(PackedEngineRuns() - before, 2);
          const std::string what =
              "c=" + std::to_string(geo.c) + " n=" + std::to_string(n) +
              " m=" + std::to_string(m) + (trans_a ? " transA" : "") +
              (accumulate ? " accumulate" : "");
          ExpectBitIdentical(c_ref.ToVector(), c_dense.ToVector(), what);
          ExpectBitIdentical(c_ref.ToVector(), c_shared.ToVector(),
                             "shared " + what);
        }
      }
    }
  }
}

// Packing scratch is cache-line aligned, at odd sizes too, and stays
// aligned when it grows.
TEST(AlignedBufferTest, SixtyFourByteAlignment) {
  gemm_detail::AlignedBuffer<float> bf;
  bf.Reserve(129);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(bf.data()) % 64, 0u);
  bf.Reserve(100001);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(bf.data()) % 64, 0u);
}

}  // namespace
}  // namespace metalora
