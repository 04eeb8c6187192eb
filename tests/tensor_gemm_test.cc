#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/autocast.h"
#include "tensor/conv_ops.h"
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
  // Extents spanning multiple KC/MC/NR blocks so k-panel store/reload and
  // B-panel reuse are exercised (KC=256, MC=96, NR=16).
  CheckShape(97, 257, 33, false, false, false);
  CheckShape(97, 257, 33, false, false, true);
  CheckShape(192, 300, 17, true, false, false);
  CheckShape(13, 513, 160, false, true, false);
}

TEST(GemmPackedTest, LoraAdapterShapes) {
  // Rank-R adapter projections as run by the LoRA chain (core::TnAdapter): x[b,d]·Aᵀ[d,r] down,
  // then ·Bᵀ[r,d] up, including rank 1 (the GEMV-shaped edge).
  for (int64_t rank : {1, 2, 4, 8}) {
    CheckShape(/*n=*/33, /*k=*/129, /*m=*/rank, false, true, false);
    CheckShape(/*n=*/33, /*k=*/rank, /*m=*/129, false, true, false);
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

// The perf_opt contract for the facades: every layout, including the
// backward-pass MatmulTransA and the classifier-head MatVec, must route
// through the engine's ParallelFor row-panel path rather than a private
// serial loop. ParallelFor counts entries even when it degrades to inline
// execution, so the assertion holds on single-core machines.
TEST(GemmRoutingTest, MatmulTransAEntersParallelFor) {
  Rng rng(11);
  Tensor at = RandomNormal(Shape{64, 48}, rng);
  Tensor b = RandomNormal(Shape{64, 32}, rng);
  const int64_t before = ThreadPool::TotalParallelForCalls();
  Tensor c = MatmulTransA(at, b);
  EXPECT_GT(ThreadPool::TotalParallelForCalls(), before);
  Tensor c_ref{Shape{48, 32}};
  GemmReference(at.data(), true, b.data(), false, c_ref.data(), 48, 64, 32,
                false);
  ExpectBitIdentical(c_ref.ToVector(), c.ToVector(), "MatmulTransA facade");
}

// GEMV routing is work-gated: below the serial threshold the pool
// dispatch costs more than the row dots it distributes (the lora_down_r1
// regression), so a small mat-vec must NOT enter ParallelFor, while a
// large one still must. Both sides stay bit-identical to the reference —
// the per-element accumulation chain is the same either way.
TEST(GemmRoutingTest, MatVecRoutesByWorkAndStaysBitIdentical) {
  Rng rng(12);
  // 96*80 multiply-adds: well under the serial threshold.
  Tensor a_small = RandomNormal(Shape{96, 80}, rng);
  Tensor x_small = RandomNormal(Shape{80}, rng);
  int64_t before = ThreadPool::TotalParallelForCalls();
  Tensor y_small = MatVec(a_small, x_small);
  EXPECT_EQ(ThreadPool::TotalParallelForCalls(), before);
  Tensor y_small_ref{Shape{96}};
  GemmReference(a_small.data(), false, x_small.data(), false,
                y_small_ref.data(), 96, 80, 1, false);
  ExpectBitIdentical(y_small_ref.ToVector(), y_small.ToVector(),
                     "small MatVec facade");
  // 1024*512 multiply-adds: above the threshold, must distribute.
  Tensor a_big = RandomNormal(Shape{1024, 512}, rng);
  Tensor x_big = RandomNormal(Shape{512}, rng);
  before = ThreadPool::TotalParallelForCalls();
  Tensor y_big = MatVec(a_big, x_big);
  EXPECT_GT(ThreadPool::TotalParallelForCalls(), before);
  Tensor y_big_ref{Shape{1024}};
  GemmReference(a_big.data(), false, x_big.data(), false, y_big_ref.data(),
                1024, 512, 1, false);
  ExpectBitIdentical(y_big_ref.ToVector(), y_big.ToVector(),
                     "large MatVec facade");
}

TEST(GemmRoutingTest, MatmulAndTransBEnterParallelFor) {
  Rng rng(13);
  Tensor a = RandomNormal(Shape{40, 24}, rng);
  Tensor b = RandomNormal(Shape{24, 56}, rng);
  Tensor bt = RandomNormal(Shape{56, 24}, rng);
  int64_t before = ThreadPool::TotalParallelForCalls();
  Matmul(a, b);
  EXPECT_GT(ThreadPool::TotalParallelForCalls(), before);
  before = ThreadPool::TotalParallelForCalls();
  MatmulTransB(a, bt);
  EXPECT_GT(ThreadPool::TotalParallelForCalls(), before);
}

// Tile autotune under concurrent first-callers: every thread that races
// into AutotuneGemmTiles — explicitly, or implicitly by running a GEMM
// over the lazy-trigger FLOP threshold — must come back with the same
// published tile triple, and the sweep must run exactly once per
// precision (std::call_once + release/acquire publication; TSan polices
// the ordering). The test-suite GEMMs above are all below the lazy
// threshold, so this is a genuine first-caller race, not a warm read.
TEST(GemmAutotuneTest, ConcurrentFirstCallersAgreeOnTiles) {
  constexpr int kThreads = 8;
  std::vector<GemmTiles> fp32_tiles(kThreads);
  std::vector<GemmTiles> bf16_tiles(kThreads);
  Rng rng(99);
  Tensor a = RandomNormal(Shape{256, 256}, rng);
  Tensor b = RandomNormal(Shape{256, 256}, rng);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        if (t % 4 == 3) {
          // Implicit path: a 256^3 product (3.3e7 FLOPs) crosses the lazy
          // autotune threshold inside the GEMM entry point.
          Tensor c{Shape{256, 256}};
          GemmPackedBf16(a.data(), false, b.data(), false, c.data(), 256,
                         256, 256, /*accumulate=*/false);
        }
        fp32_tiles[static_cast<size_t>(t)] =
            AutotuneGemmTiles(OpPrecision::kFp32);
        bf16_tiles[static_cast<size_t>(t)] =
            AutotuneGemmTiles(OpPrecision::kBf16);
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_TRUE(GemmTilesAutotuned(OpPrecision::kFp32));
  EXPECT_TRUE(GemmTilesAutotuned(OpPrecision::kBf16));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(fp32_tiles[static_cast<size_t>(t)].mc, fp32_tiles[0].mc);
    EXPECT_EQ(fp32_tiles[static_cast<size_t>(t)].kc, fp32_tiles[0].kc);
    EXPECT_EQ(fp32_tiles[static_cast<size_t>(t)].nc, fp32_tiles[0].nc);
    EXPECT_EQ(bf16_tiles[static_cast<size_t>(t)].mc, bf16_tiles[0].mc);
    EXPECT_EQ(bf16_tiles[static_cast<size_t>(t)].kc, bf16_tiles[0].kc);
    EXPECT_EQ(bf16_tiles[static_cast<size_t>(t)].nc, bf16_tiles[0].nc);
  }
  // CurrentGemmTiles must serve exactly what the racers observed.
  EXPECT_EQ(CurrentGemmTiles(OpPrecision::kFp32).kc, fp32_tiles[0].kc);
  EXPECT_EQ(CurrentGemmTiles(OpPrecision::kBf16).kc, bf16_tiles[0].kc);
  // Whatever tiles won, bit-identity still holds under them.
  CheckShape(97, 257, 33, false, true, false);
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

// Conv-as-GEMM: unfold real padded/strided geometries with Im2Col, then
// drive the packed engine over the resulting column matrices exactly as
// Conv2dForward does (accumulating into a zeroed output).
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

}  // namespace
}  // namespace metalora
