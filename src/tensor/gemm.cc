#include "tensor/gemm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "tensor/gemm_detail.h"

#if METALORA_GEMM_AVX2_CLONES
#include <immintrin.h>
#endif

namespace metalora {

namespace {

using gemm_detail::AIndex;
using gemm_detail::BIndex;
using gemm_detail::MulAddStep;

// The GEMV routes' thin limits (see ThinColumns).
constexpr int64_t kThinCols = 4;
constexpr int64_t kThinColsRowMajorA = 2;
constexpr int64_t kThinRows = 2;

// Packing scratch, per thread, aligned to a cache line so vector loads
// from packed panels never straddle lines (std::vector only guarantees
// alignof(float) and relied on allocator luck). Every GEMM
// runs on its caller's thread, and callers are long-lived, so the
// buffers amortize to zero allocations in steady state — the same
// grow-once-reuse-forever contract as the autograd WorkspaceArena, held
// here because the tensor layer sits below autograd and cannot see it.
// The shared-A buffer holds a whole op(A) packed once by PackAOnce for a
// run of GEMMs; it stays valid until the same thread packs again.
struct PackScratch {
  gemm_detail::AlignedBuffer<float> a;
  gemm_detail::AlignedBuffer<float> b;
  gemm_detail::AlignedBuffer<float> shared_a;
};

PackScratch& Scratch() {
  thread_local PackScratch scratch;
  return scratch;
}

// Packs the mc×kc block of op(A) at (ic, pc) into micro-panels of kGemmMR
// rows: panel q holds rows [q·MR, q·MR+MR) as kc steps of MR contiguous
// floats (ap[q·kc·MR + p·MR + r]), zero-padded past mc so the micro-kernel
// never branches on the row tail.
void PackA(const float* a, bool trans_a, int64_t n, int64_t k, int64_t ic,
           int64_t mc, int64_t pc, int64_t kc, float* ap) {
  const int64_t panels = (mc + kGemmMR - 1) / kGemmMR;
  for (int64_t q = 0; q < panels; ++q) {
    const int64_t row0 = ic + q * kGemmMR;
    const int64_t rows = std::min(kGemmMR, mc - q * kGemmMR);
    float* dst = ap + q * kc * kGemmMR;
    if (trans_a) {
      // Source rows are contiguous in i: one strided copy per k step.
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = a + (pc + p) * n + row0;
        float* d = dst + p * kGemmMR;
        for (int64_t r = 0; r < rows; ++r) d[r] = src[r];
        for (int64_t r = rows; r < kGemmMR; ++r) d[r] = 0.0f;
      }
    } else {
      for (int64_t p = 0; p < kc; ++p) {
        float* d = dst + p * kGemmMR;
        for (int64_t r = 0; r < rows; ++r) d[r] = a[(row0 + r) * k + pc + p];
        for (int64_t r = rows; r < kGemmMR; ++r) d[r] = 0.0f;
      }
    }
  }
}

// Packs the kc×nc block of op(B) at (pc, jc) into micro-panels of kGemmNR
// columns: panel t holds columns [t·NR, t·NR+NR) as kc steps of NR
// contiguous floats (bp[t·kc·NR + p·NR + j]), zero-padded past nc.
void PackB(const float* b, bool trans_b, int64_t k, int64_t m, int64_t pc,
           int64_t kc, int64_t jc, int64_t nc, float* bp) {
  const int64_t panels = (nc + kGemmNR - 1) / kGemmNR;
  for (int64_t t = 0; t < panels; ++t) {
    const int64_t col0 = jc + t * kGemmNR;
    const int64_t cols = std::min(kGemmNR, nc - t * kGemmNR);
    float* dst = bp + t * kc * kGemmNR;
    if (trans_b) {
      for (int64_t p = 0; p < kc; ++p) {
        float* d = dst + p * kGemmNR;
        for (int64_t j = 0; j < cols; ++j) d[j] = b[(col0 + j) * k + pc + p];
        for (int64_t j = cols; j < kGemmNR; ++j) d[j] = 0.0f;
      }
    } else {
      // Source columns are contiguous in j: one memcpy-shaped copy per k.
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = b + (pc + p) * m + col0;
        float* d = dst + p * kGemmNR;
        for (int64_t j = 0; j < cols; ++j) d[j] = src[j];
        for (int64_t j = cols; j < kGemmNR; ++j) d[j] = 0.0f;
      }
    }
  }
}

// The engine's B panels come from two sources: packed panels (a
// `const float*` at the panel's first value), or, for the direct im2col
// route, an ImagePanel read straight from a zero-padded image. A
// micro-kernel is a template over the panel type and loads B row p
// through LoadB8/LoadB4, so both sources run the same FMA sequence.
template <typename Panel>
using MicroKernelFn = void (*)(const float* ap, Panel bp, int64_t kc,
                               float* c, int64_t ldc, bool accumulate);

// A B panel of the direct im2col route (a stride-1 cols whose panels split
// into runs of 4 on one output row): row p's quarter i, the 4 columns
// [4i, 4i + 4) of the panel, is the 4 floats at quarter[i] + koff[p]
// (quarter[i] = input + ColOffset of its first column, koff[p] = RowOffset
// of row p). With kRuns8 (wo % 8 == 0) quarters 0-1 and 2-3 are each one
// 8-float run of the image.
template <bool kRuns8>
struct ImagePanel {
  const float* quarter[4];
  const int64_t* koff;
};

// The micro-panel of a B block at column jr of the block: the panels of a
// packed block lie kc·NR floats apart.
inline const float* PanelAt(const float* bp, int64_t jr, int64_t kc) {
  return bp + jr / kGemmNR * kc * kGemmNR;
}

// A direct route's block at (pc, jc): the image, koff from row pc on, and
// the ColOffset of every fourth column from column jc on.
template <bool kRuns8>
struct ImageBlock {
  const float* input;
  const int64_t* koff;
  const int64_t* quarters;
};

template <bool kRuns8>
ImagePanel<kRuns8> PanelAt(const ImageBlock<kRuns8>& b, int64_t jr,
                           int64_t /*kc*/) {
  const int64_t* q = b.quarters + jr / 4;
  return {{b.input + q[0], b.input + q[1], b.input + q[2], b.input + q[3]},
          b.koff};
}

#if METALORA_GEMM_AVX2_CLONES

// Half h (columns [8h, 8h + 8)) of B row p, from a packed panel or from
// the image: one 8-float run, or two 4-float quarters.
METALORA_AVX2_FMA_TARGET inline __m256 LoadB8(const float* bp, int64_t p,
                                              int64_t h) {
  return _mm256_loadu_ps(bp + p * kGemmNR + 8 * h);
}
template <bool kRuns8>
METALORA_AVX2_FMA_TARGET inline __m256 LoadB8(const ImagePanel<kRuns8>& bp,
                                              int64_t p, int64_t h) {
  const int64_t off = bp.koff[p];
  if constexpr (kRuns8) {
    return _mm256_loadu_ps(bp.quarter[2 * h] + off);
  } else {
    return _mm256_insertf128_ps(
        _mm256_castps128_ps256(_mm_loadu_ps(bp.quarter[2 * h] + off)),
        _mm_loadu_ps(bp.quarter[2 * h + 1] + off), 1);
  }
}

// AVX2+FMA micro-kernel: 6 rows × 2 ymm columns of accumulators (12 of
// the 16 vector registers), one broadcast and two B loads per k step.
// The broadcast takes A's value, not its address: with
// _mm256_broadcast_ss(av + r), GCC 12 kept the accumulators in memory and
// stored all 12 on every k step.
template <typename Panel>
METALORA_AVX2_FMA_TARGET void MicroKernelAvx2(const float* ap, Panel bp,
                                              int64_t kc, float* c,
                                              int64_t ldc, bool accumulate) {
  __m256 acc[kGemmMR][2];
  if (accumulate) {
    for (int64_t r = 0; r < kGemmMR; ++r) {
      acc[r][0] = _mm256_loadu_ps(c + r * ldc);
      acc[r][1] = _mm256_loadu_ps(c + r * ldc + 8);
    }
  } else {
    for (int64_t r = 0; r < kGemmMR; ++r) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = LoadB8(bp, p, 0);
    const __m256 b1 = LoadB8(bp, p, 1);
    const float* av = ap + p * kGemmMR;
    for (int64_t r = 0; r < kGemmMR; ++r) {
      const __m256 ar = _mm256_set1_ps(av[r]);
      acc[r][0] = _mm256_fmadd_ps(ar, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(ar, b1, acc[r][1]);
    }
  }
  for (int64_t r = 0; r < kGemmMR; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc[r][0]);
    _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
  }
}

#endif  // METALORA_GEMM_AVX2_CLONES

#if defined(__GNUC__) || defined(__clang__)

// Portable SIMD micro-kernel via GCC/Clang generic vector extensions:
// compiles to SSE on baseline x86-64, NEON on AArch64. The 6×16 tile is
// computed as two independent 6×8 half-tiles of *named* 4-lane
// accumulators — 12 vector registers, within the 16 of SSE/NEON. (An
// accumulator array, even a fixed-bound one, is not reliably
// register-promoted by GCC 12 and the resulting per-k-step spills made
// the kernel slower than the naive loop.) Per output element the
// accumulation stays a single mul-then-add chain in p order, matching
// GemmReference bit-for-bit; the halves touch disjoint columns.
using gemm_detail::V4f;
using gemm_detail::V4Load;
using gemm_detail::V4Splat;
using gemm_detail::V4Store;

// Quarter q (columns [4q, 4q + 4)) of B row p, from a packed panel or from
// the image.
inline V4f LoadB4(const float* bp, int64_t p, int64_t q) {
  return V4Load(bp + p * kGemmNR + 4 * q);
}
template <bool kRuns8>
inline V4f LoadB4(const ImagePanel<kRuns8>& bp, int64_t p, int64_t q) {
  return V4Load(bp.quarter[q] + bp.koff[p]);
}

template <typename Panel>
void MicroKernelPortable(const float* __restrict__ ap, Panel bp, int64_t kc,
                         float* __restrict__ c, int64_t ldc,
                         bool accumulate) {
  static_assert(kGemmMR == 6 && kGemmNR == 16,
                "micro-kernel is hand-unrolled for a 6x16 tile");
  for (int64_t j0 = 0; j0 < kGemmNR; j0 += 8) {
    V4f c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51;
    if (accumulate) {
      c00 = V4Load(c + 0 * ldc + j0), c01 = V4Load(c + 0 * ldc + j0 + 4);
      c10 = V4Load(c + 1 * ldc + j0), c11 = V4Load(c + 1 * ldc + j0 + 4);
      c20 = V4Load(c + 2 * ldc + j0), c21 = V4Load(c + 2 * ldc + j0 + 4);
      c30 = V4Load(c + 3 * ldc + j0), c31 = V4Load(c + 3 * ldc + j0 + 4);
      c40 = V4Load(c + 4 * ldc + j0), c41 = V4Load(c + 4 * ldc + j0 + 4);
      c50 = V4Load(c + 5 * ldc + j0), c51 = V4Load(c + 5 * ldc + j0 + 4);
    } else {
      c00 = c01 = c10 = c11 = c20 = c21 = V4f{};
      c30 = c31 = c40 = c41 = c50 = c51 = V4f{};
    }
    const int64_t q0 = j0 / 4;
    for (int64_t p = 0; p < kc; ++p) {
      const V4f b0 = LoadB4(bp, p, q0);
      const V4f b1 = LoadB4(bp, p, q0 + 1);
      const float* av = ap + p * kGemmMR;
      V4f ar;
      ar = V4Splat(av[0]), c00 += ar * b0, c01 += ar * b1;
      ar = V4Splat(av[1]), c10 += ar * b0, c11 += ar * b1;
      ar = V4Splat(av[2]), c20 += ar * b0, c21 += ar * b1;
      ar = V4Splat(av[3]), c30 += ar * b0, c31 += ar * b1;
      ar = V4Splat(av[4]), c40 += ar * b0, c41 += ar * b1;
      ar = V4Splat(av[5]), c50 += ar * b0, c51 += ar * b1;
    }
    V4Store(c + 0 * ldc + j0, c00), V4Store(c + 0 * ldc + j0 + 4, c01);
    V4Store(c + 1 * ldc + j0, c10), V4Store(c + 1 * ldc + j0 + 4, c11);
    V4Store(c + 2 * ldc + j0, c20), V4Store(c + 2 * ldc + j0 + 4, c21);
    V4Store(c + 3 * ldc + j0, c30), V4Store(c + 3 * ldc + j0 + 4, c31);
    V4Store(c + 4 * ldc + j0, c40), V4Store(c + 4 * ldc + j0 + 4, c41);
    V4Store(c + 5 * ldc + j0, c50), V4Store(c + 5 * ldc + j0 + 4, c51);
  }
}

#else

// Scalar fallback for compilers without vector extensions. Fixed-bound
// loops over a local accumulator tile; same p-ordered accumulation chain.
// Packed panels only: these builds have no direct im2col route.
template <typename Panel>
void MicroKernelPortable(const float* ap, Panel bp, int64_t kc, float* c,
                         int64_t ldc, bool accumulate) {
  constexpr int64_t kHalf = kGemmNR / 2;
  for (int64_t j0 = 0; j0 < kGemmNR; j0 += kHalf) {
    float acc[kGemmMR][kHalf];
    if (accumulate) {
      for (int64_t r = 0; r < kGemmMR; ++r)
        for (int64_t j = 0; j < kHalf; ++j) acc[r][j] = c[r * ldc + j0 + j];
    } else {
      for (int64_t r = 0; r < kGemmMR; ++r)
        for (int64_t j = 0; j < kHalf; ++j) acc[r][j] = 0.0f;
    }
    const auto bh = bp + j0;
    for (int64_t p = 0; p < kc; ++p) {
      const float* av = ap + p * kGemmMR;
      const auto bv = bh + p * kGemmNR;
      for (int64_t r = 0; r < kGemmMR; ++r) {
        const float ar = av[r];
        for (int64_t j = 0; j < kHalf; ++j) acc[r][j] += ar * bv[j];
      }
    }
    for (int64_t r = 0; r < kGemmMR; ++r)
      for (int64_t j = 0; j < kHalf; ++j) c[r * ldc + j0 + j] = acc[r][j];
  }
}

#endif  // portable back-end

// The trans_b im2col pack of a stride-1 conv (the weight gradient's colsᵀ)
// by register transposes instead of per-element gathers. Panel column j
// is row r = (ch, kh, kw) of cols and k step p an output position, so
// kV consecutive steps on one output row read kV consecutive floats of
// each row's image run: kV panel columns by kV steps are kV contiguous
// loads, one kV×kV transpose and kV stores (Block::Run). A row's last
// steps short of kV, and columns past the last whole group of kV, keep
// the gather. Pure data movement: the panels are byte for byte
// PackIm2ColB's.
template <typename Block>
METALORA_ALWAYS_INLINE inline void PackIm2ColBTransposed(
    const gemm_detail::Im2ColOperand& op, int64_t pc, int64_t kc, int64_t jc,
    int64_t nc, float* bp) {
  constexpr int64_t kV = Block::kV;
  const int64_t panels = (nc + kGemmNR - 1) / kGemmNR;
  for (int64_t t = 0; t < panels; ++t) {
    const int64_t col0 = jc + t * kGemmNR;
    const int64_t cols = std::min(kGemmNR, nc - t * kGemmNR);
    const int64_t grouped = cols / kV * kV;
    float* dst = bp + t * kc * kGemmNR;
    int64_t table[kGemmNR];
    for (int64_t j = 0; j < cols; ++j) table[j] = op.RowOffset(col0 + j);
    auto gather = [&](const float* src, float* d) {
      for (int64_t j = grouped; j < cols; ++j) d[j] = src[table[j]];
      for (int64_t j = cols; j < kGemmNR; ++j) d[j] = 0.0f;
    };
    // One output row's run of steps at a time: its offsets are contiguous.
    for (int64_t p = 0; p < kc;) {
      const int64_t s = pc + p;
      const int64_t run = std::min(op.wo - s % op.wo, kc - p);
      const float* src = op.input + op.ColOffset(s);
      float* d = dst + p * kGemmNR;
      int64_t q = 0;
      for (; q + kV <= run; q += kV) {
        for (int64_t j = 0; j < grouped; j += kV) {
          Block::Run(src + q, table + j, d + q * kGemmNR + j);
        }
        for (int64_t v = 0; v < kV; ++v) {
          gather(src + q + v, d + (q + v) * kGemmNR);
        }
      }
      for (; q < run; ++q) {
        float* dq = d + q * kGemmNR;
        for (int64_t j = 0; j < grouped; ++j) dq[j] = src[q + table[j]];
        gather(src + q, dq);
      }
      p += run;
    }
  }
}

#if METALORA_GEMM_AVX2_CLONES

using gemm_detail::Transpose8x8Avx2;

METALORA_AVX2_FMA_TARGET void PackIm2ColBTransposedAvx2(
    const gemm_detail::Im2ColOperand& op, int64_t pc, int64_t kc, int64_t jc,
    int64_t nc, float* bp) {
  PackIm2ColBTransposed<Transpose8x8Avx2>(op, pc, kc, jc, nc, bp);
}

#endif  // METALORA_GEMM_AVX2_CLONES

#if defined(__GNUC__) || defined(__clang__)
using gemm_detail::Transpose4x4Portable;
#endif

// Full tiles write straight to C; tail tiles run the same kernel on a
// padded scratch tile (padded operand entries are zero, so the extra
// lanes compute garbage-free zeros) and copy the valid region out.
// The kernel is a template argument, so the ISA is chosen once per GEMM
// call and each micro-tile makes a direct call.
template <typename Panel, MicroKernelFn<Panel> kKernel>
void MicroTile(const float* ap, Panel bp, int64_t kc, float* c, int64_t ldc,
               int64_t mr, int64_t nr, bool accumulate) {
  if (mr == kGemmMR && nr == kGemmNR) {
    kKernel(ap, bp, kc, c, ldc, accumulate);
    return;
  }
  float tile[kGemmMR * kGemmNR];
  if (accumulate) {
    std::memset(tile, 0, sizeof(tile));
    for (int64_t r = 0; r < mr; ++r)
      for (int64_t j = 0; j < nr; ++j) tile[r * kGemmNR + j] = c[r * ldc + j];
    kKernel(ap, bp, kc, tile, kGemmNR, /*accumulate=*/true);
  } else {
    kKernel(ap, bp, kc, tile, kGemmNR, /*accumulate=*/false);
  }
  for (int64_t r = 0; r < mr; ++r)
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = tile[r * kGemmNR + j];
}

// GEMV fast path (y = op(A)·x): packing would double the memory traffic
// of an already bandwidth-bound kernel, so run the row dots directly.
// Accumulation order per element is p = 0..k-1, same as the blocked path
// and the reference. Rows run kRows at a time so their independent chains
// overlap instead of each waiting out the add (or fused multiply-add)
// latency of the one before: 32 when A is stored [k, n] (the rows of one p
// are contiguous, so that is four vector chains), else 8, then a 4, 2 and
// 1 tail.
template <bool kFused, int64_t kRows>
METALORA_ALWAYS_INLINE inline void GemvBlock(const float* a, bool trans_a,
                                             const float* x, float* y,
                                             int64_t n, int64_t k, int64_t i,
                                             bool accumulate) {
  float acc[kRows];
  for (int64_t r = 0; r < kRows; ++r) acc[r] = accumulate ? y[i + r] : 0.0f;
  for (int64_t p = 0; p < k; ++p) {
    const float xp = x[p];
    for (int64_t r = 0; r < kRows; ++r) {
      const float av = trans_a ? a[p * n + i + r] : a[(i + r) * k + p];
      acc[r] = MulAddStep<kFused>(av, xp, acc[r]);
    }
  }
  for (int64_t r = 0; r < kRows; ++r) y[i + r] = acc[r];
}

template <bool kFused>
METALORA_ALWAYS_INLINE inline void GemvRows(const float* a, bool trans_a,
                                            const float* x, float* y,
                                            int64_t n, int64_t k,
                                            bool accumulate) {
  int64_t i = 0;
  if (trans_a) {
    for (; i + 32 <= n; i += 32) {
      GemvBlock<kFused, 32>(a, /*trans_a=*/true, x, y, n, k, i, accumulate);
    }
  }
  for (; i + 8 <= n; i += 8) {
    GemvBlock<kFused, 8>(a, trans_a, x, y, n, k, i, accumulate);
  }
  if (i + 4 <= n) {
    GemvBlock<kFused, 4>(a, trans_a, x, y, n, k, i, accumulate);
    i += 4;
  }
  if (i + 2 <= n) {
    GemvBlock<kFused, 2>(a, trans_a, x, y, n, k, i, accumulate);
    i += 2;
  }
  if (i < n) GemvBlock<kFused, 1>(a, trans_a, x, y, n, k, i, accumulate);
}

#if METALORA_GEMM_AVX2_CLONES
METALORA_AVX2_FMA_TARGET void GemvRowsAvx2(const float* a, bool trans_a,
                                           const float* x, float* y,
                                           int64_t n, int64_t k,
                                           bool accumulate) {
  GemvRows<true>(a, trans_a, x, y, n, k, accumulate);
}
#endif

void GemvPath(const float* a, bool trans_a, const float* x, float* y,
              int64_t n, int64_t k, bool accumulate) {
#if METALORA_GEMM_AVX2_CLONES
  if (gemm_detail::FusedMulAdd()) {
    GemvRowsAvx2(a, trans_a, x, y, n, k, accumulate);
    return;
  }
#endif
  GemvRows<false>(a, trans_a, x, y, n, k, accumulate);
}

// Rank-thin products run as GEMV chains instead of padding to MR×NR
// micro-tiles: a thin op(B) as one GEMV per column of C, a thin op(A) as
// one GEMV over op(B)ᵀ per row of C. Every output keeps the blocked path's
// p = 0..k-1 chain, so the route never changes a byte. The low-rank
// chains make these shapes: the U gradient [O, R], the R-row Uᵀ·g, the
// R×R core. A GEMV beats the padded tiles only while its matrix is
// contiguous across the outputs it runs at once, so "thin" depends on
// the layout (limits measured over n, k ≤ 512):
//   - columns: m ≤ 4 when A is stored [k, n], m ≤ 2 when it is [n, k];
//   - rows: n ≤ 2 when B is stored [k, m].
// The callers run m == 1 and n == 1 (any layout) as one inline GEMV
// ahead of these, so a one-row or one-column product pays no routing.
bool ThinColumns(int64_t m, bool trans_a) {
  return m <= (trans_a ? kThinCols : kThinColsRowMajorA);
}

bool ThinRows(int64_t n, bool trans_b) { return n <= kThinRows && !trans_b; }

// The GEMV routes' gathered vector operand and strided output column.
thread_local gemm_detail::AlignedBuffer<float> tls_gemv_x;
thread_local gemm_detail::AlignedBuffer<float> tls_gemv_y;

// C[:, j] (+)= op(A) · op(B)[:, j] for every j < m, with op(B)'s column j
// read in place when B is stored [m, k], else gathered into scratch; each
// column of C goes through scratch.
void GemvColumns(const float* a, bool trans_a, const float* b, bool trans_b,
                 float* c, int64_t n, int64_t k, int64_t m, bool accumulate) {
  tls_gemv_y.Reserve(n);
  float* y = tls_gemv_y.data();
  for (int64_t j = 0; j < m; ++j) {
    const float* x = b + j * k;
    if (!trans_b) {
      tls_gemv_x.Reserve(k);
      float* column = tls_gemv_x.data();
      for (int64_t p = 0; p < k; ++p) column[p] = b[p * m + j];
      x = column;
    }
    if (accumulate) {
      for (int64_t i = 0; i < n; ++i) y[i] = c[i * m + j];
    }
    GemvPath(a, trans_a, x, y, n, k, accumulate);
    for (int64_t i = 0; i < n; ++i) c[i * m + j] = y[i];
  }
}

// C[i, :] (+)= op(A)[i, :] · op(B) for every i < n: one GEMV over op(B)ᵀ
// per row, with op(A)'s row as the vector (gathered when A is stored
// [k, n]).
void GemvRowsOfC(const float* a, bool trans_a, const float* b, bool trans_b,
                 float* c, int64_t n, int64_t k, int64_t m, bool accumulate) {
  for (int64_t i = 0; i < n; ++i) {
    const float* x = a + i * k;
    if (trans_a) {
      tls_gemv_x.Reserve(k);
      float* row = tls_gemv_x.data();
      for (int64_t p = 0; p < k; ++p) row[p] = a[p * n + i];
      x = row;
    }
    GemvPath(b, !trans_b, x, c + i * m, m, k, accumulate);
  }
}

// Runs a thin dense product as GEMV chains and returns true, or returns
// false for the blocked engine. Out of line, so GemmPacked, which inlines
// the engine, compiles as it did without the GEMV routes (inlined, they
// cost small-k engine products about 10%).
[[gnu::noinline]] bool GemmThin(const float* a, bool trans_a, const float* b,
                                bool trans_b, float* c, int64_t n, int64_t k,
                                int64_t m, bool accumulate) {
  if (ThinColumns(m, trans_a)) {
    GemvColumns(a, trans_a, b, trans_b, c, n, k, m, accumulate);
    return true;
  }
  if (ThinRows(n, trans_b)) {
    GemvRowsOfC(a, trans_a, b, trans_b, c, n, k, m, accumulate);
    return true;
  }
  return false;
}

// One blocked GEMM on one ISA's kernel, over the fixed cache blocks
// kGemmMC/KC/NC.
// `pack_a(ic, mc, pc, kc)` returns the mc×kc block of op(A) at (ic, pc)
// in PackA's panel layout: packed on the spot into the executing thread's
// scratch for a dense matrix, or read from a PackAOnce operand.
// `pack_b(pc, kc, jc, nc)` returns the kc×nc block of op(B) at (pc, jc):
// panels in PackB's layout (PackB or PackIm2ColB, a conv input lowered as
// it is packed, into scratch), or an ImageBlock that names where the
// block's rows lie in a padded image.
// PanelAt finds a micro-panel in either. Row blocks start on MR-row panel
// boundaries of op(A), and k panels accumulate through C in p order, so
// the blocking never changes an output element's accumulation chain.
template <typename Panel, MicroKernelFn<Panel> kKernel, typename PackAFn,
          typename PackBFn>
void GemmPackedTiledOn(const PackAFn& pack_a, const PackBFn& pack_b,
                       float* c, int64_t n, int64_t k, int64_t m,
                       bool accumulate) {
  for (int64_t jc = 0; jc < m; jc += kGemmNC) {
    const int64_t nc = std::min(kGemmNC, m - jc);
    for (int64_t pc = 0; pc < k; pc += kGemmKC) {
      const int64_t kc = std::min(kGemmKC, k - pc);
      // Panels after the first accumulate onto the partial sums already
      // stored in C; storing and reloading float32 is exact, so the
      // per-element accumulation chain stays p = 0..k-1 in order.
      const bool acc_panel = accumulate || pc > 0;
      const auto bp = pack_b(pc, kc, jc, nc);
      for (int64_t ic = 0; ic < n; ic += kGemmMC) {
        const int64_t mc = std::min(kGemmMC, n - ic);
        const float* ap = pack_a(ic, mc, pc, kc);
        for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
          const int64_t nr = std::min(kGemmNR, nc - jr);
          const Panel bpanel = PanelAt(bp, jr, kc);
          for (int64_t ir = 0; ir < mc; ir += kGemmMR) {
            const int64_t mr = std::min(kGemmMR, mc - ir);
            MicroTile<Panel, kKernel>(ap + (ir / kGemmMR) * kc * kGemmMR,
                                      bpanel, kc, c + (ic + ir) * m + jc + jr,
                                      m, mr, nr, acc_panel);
          }
        }
      }
    }
  }
}

thread_local int64_t tls_packed_engine_runs = 0;

// Every blocked GEMM lands here; the blocked engine reads the ISA once per
// call. The panel type, and with it the kernels' B loads, follows from
// what pack_b returns.
template <typename PackAFn, typename PackBFn>
void GemmPackedTiled(const PackAFn& pack_a, const PackBFn& pack_b, float* c,
                     int64_t n, int64_t k, int64_t m, bool accumulate) {
  using Panel = decltype(PanelAt(pack_b(0, 0, 0, 0), 0, 0));
  ++tls_packed_engine_runs;
#if METALORA_GEMM_AVX2_CLONES
  if (gemm_detail::FusedMulAdd()) {
    GemmPackedTiledOn<Panel, MicroKernelAvx2<Panel>>(pack_a, pack_b, c, n, k,
                                                     m, accumulate);
    return;
  }
#endif
  GemmPackedTiledOn<Panel, MicroKernelPortable<Panel>>(pack_a, pack_b, c, n,
                                                       k, m, accumulate);
}

// The dense A source: PackA into the calling thread's scratch.
auto DensePackA(const float* a, bool trans_a, int64_t n, int64_t k) {
  return [=](int64_t ic, int64_t mc, int64_t pc, int64_t kc) {
    gemm_detail::AlignedBuffer<float>& abuf = Scratch().a;
    abuf.Reserve((mc + kGemmMR - 1) / kGemmMR * kc * kGemmMR);
    PackA(a, trans_a, n, k, ic, mc, pc, kc, abuf.data());
    return static_cast<const float*>(abuf.data());
  };
}

// The A source of a PackAOnce operand: the engine asks only for blocks
// that start on a panel boundary, which PackedA::BlockOffset locates.
auto SharedPackA(const gemm_detail::PackedA& a) {
  return [&a](int64_t ic, int64_t, int64_t pc, int64_t kc) {
    return a.panels + a.BlockOffset(ic, pc, kc);
  };
}

// The B sources that pack into the calling thread's scratch: `pack(pc,
// kc, jc, nc, bp)` writes the block's panels to bp.
template <typename PackFn>
auto ScratchPackB(const PackFn& pack) {
  return [pack](int64_t pc, int64_t kc, int64_t jc, int64_t nc) {
    gemm_detail::AlignedBuffer<float>& bbuf = Scratch().b;
    bbuf.Reserve((nc + kGemmNR - 1) / kGemmNR * kc * kGemmNR);
    pack(pc, kc, jc, nc, bbuf.data());
    return static_cast<const float*>(bbuf.data());
  };
}

// The dense B source: PackB over a stored [k,m] (or [m,k]) matrix.
auto DensePackB(const float* b, bool trans_b, int64_t k, int64_t m) {
  return ScratchPackB(
      [=](int64_t pc, int64_t kc, int64_t jc, int64_t nc, float* bp) {
        PackB(b, trans_b, k, m, pc, kc, jc, nc, bp);
      });
}

// The im2col B source: a conv input lowered as it is packed (the packer
// transposes image runs where it can, see PackIm2ColBFast).
auto Im2ColPackB(const gemm_detail::Im2ColOperand& op, bool trans_b) {
  return ScratchPackB(
      [&op, trans_b](int64_t pc, int64_t kc, int64_t jc, int64_t nc,
                     float* bp) {
        gemm_detail::PackIm2ColBFast(op, trans_b, pc, kc, jc, nc, bp);
      });
}

// The direct im2col route's offset tables for one conv geometry: koff[p] =
// RowOffset(p) for every row of cols, and quarters[s / 4] = ColOffset(s)
// for every fourth column s. They depend on the geometry alone, not on the
// sample, so a conv call builds them at its first sample and its other
// samples read them (per thread; rebuilt when the geometry changes, as it
// does from layer to layer). The build divides only over the first
// channel's kernel footprint: a 288-row table took 3.6 us with a division
// per row and 0.6 us this way, on a 4-core x86-64 host.
struct ImageOffsets {
  std::array<int64_t, 7> geometry{};
  gemm_detail::AlignedBuffer<int64_t> koff, quarters;
};

const ImageOffsets& ImageOffsetsOf(const gemm_detail::Im2ColOperand& op) {
  thread_local ImageOffsets t;
  const std::array<int64_t, 7> geometry = {
      op.c, op.h, op.w, op.kernel_h, op.kernel_w, op.ho, op.wo};
  if (t.koff.data() != nullptr && t.geometry == geometry) return t;
  const int64_t k = op.rows(), m = op.cols();
  t.koff.Reserve(k);
  t.quarters.Reserve(m / 4);
  // Channel ch's rows are channel 0's, one plane further on.
  int64_t* koff = t.koff.data();
  const int64_t footprint = op.kernel_h * op.kernel_w;
  for (int64_t r = 0; r < footprint; ++r) koff[r] = op.RowOffset(r);
  for (int64_t r = footprint; r < k; ++r) {
    koff[r] = koff[r - footprint] + op.h * op.w;
  }
  // ColOffset at stride 1, one output row at a time.
  int64_t* quarter = t.quarters.data();
  for (int64_t oh = 0; oh < op.ho; ++oh) {
    for (int64_t ow = 0; ow < op.wo; ow += 4) *quarter++ = oh * op.w + ow;
  }
  t.geometry = geometry;
  return t;
}

// The direct B source: nothing is packed; a block names where its rows lie
// in the image.
template <bool kRuns8>
auto ImageB(const float* input, const ImageOffsets& t) {
  return [input, &t](int64_t pc, int64_t, int64_t jc, int64_t) {
    return ImageBlock<kRuns8>{input, t.koff.data() + pc,
                              t.quarters.data() + jc / 4};
  };
}

thread_local int64_t tls_direct_im2col_runs = 0;

// Whether the engine reads op(B) = cols straight from the image: a
// stride-1 conv whose 16-column panels are all whole and split into runs
// of 4 floats on one output row (wo % 4 == 0). Stride 2 (no runs), colsᵀ
// and partial last panels keep the pack. No size limit:
// the route beat the pack on every `adapt` plane, 16², 8² and 4² (quarter
// loads), on both ISAs.
bool DirectRouteTakes(const gemm_detail::Im2ColOperand& op, bool trans_b) {
  return !trans_b && op.stride == 1 && op.wo % 4 == 0 &&
         op.cols() % kGemmNR == 0;
}

// The engine over an im2col op(B), with op(A) from pack_a: straight from
// the image where DirectRouteTakes it (one 8-float load per panel half
// when wo % 8 == 0, else two quarters), else from packed panels.
template <typename PackAFn>
void GemmIm2ColEngine(const PackAFn& pack_a,
                      const gemm_detail::Im2ColOperand& b, bool trans_b,
                      float* c, int64_t n, int64_t k, int64_t m,
                      bool accumulate) {
#if defined(__GNUC__) || defined(__clang__)
  if (DirectRouteTakes(b, trans_b)) {
    ++tls_direct_im2col_runs;
    const ImageOffsets& t = ImageOffsetsOf(b);
    if (b.wo % 8 == 0) {
      GemmPackedTiled(pack_a, ImageB<true>(b.input, t), c, n, k, m,
                      accumulate);
    } else {
      GemmPackedTiled(pack_a, ImageB<false>(b.input, t), c, n, k, m,
                      accumulate);
    }
    return;
  }
#endif
  GemmPackedTiled(pack_a, Im2ColPackB(b, trans_b), c, n, k, m, accumulate);
}

}  // namespace

int64_t PackedEngineRuns() { return tls_packed_engine_runs; }

// The dispatcher: empty and k == 0 products, one-column and one-row GEMVs,
// the thin routes, then the blocked engine.
void GemmPacked(const float* a, bool trans_a, const float* b, bool trans_b,
                float* c, int64_t n, int64_t k, int64_t m, bool accumulate) {
  ML_DCHECK(n >= 0 && k >= 0 && m >= 0);
  if (n == 0 || m == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(c, c + n * m, 0.0f);
    return;
  }
  if (m == 1) {
    GemvPath(a, trans_a, b, c, n, k, accumulate);
    return;
  }
  if (n == 1) {
    GemvPath(b, !trans_b, a, c, m, k, accumulate);
    return;
  }
  if (GemmThin(a, trans_a, b, trans_b, c, n, k, m, accumulate)) return;
  GemmPackedTiled(DensePackA(a, trans_a, n, k), DensePackB(b, trans_b, k, m),
                  c, n, k, m, accumulate);
}

namespace gemm_detail {

void PackIm2ColBFast(const Im2ColOperand& op, bool trans_b, int64_t pc,
                     int64_t kc, int64_t jc, int64_t nc, float* bp) {
  if (trans_b && op.stride == 1) {
#if METALORA_GEMM_AVX2_CLONES
    if (FusedMulAdd()) {
      PackIm2ColBTransposedAvx2(op, pc, kc, jc, nc, bp);
      return;
    }
#endif
#if defined(__GNUC__) || defined(__clang__)
    PackIm2ColBTransposed<Transpose4x4Portable>(op, pc, kc, jc, nc, bp);
    return;
#endif
  }
  PackIm2ColB(op, trans_b, pc, kc, jc, nc, bp);
}

// The im2col counterpart of GemmPacked: op(B) is an im2col operand, and
// every product runs the engine. Column GEMVs over cols would only take
// convs with at most 2 output positions, and no ResNet-8 or Mixer plane is
// that small; a colsᵀ operand (trans_b) is a conv weight gradient, and
// conv_thin's few-columns kernel takes every one with m ≤ 8 where it is
// built.
void GemmPackedIm2Col(const float* a, bool trans_a, const Im2ColOperand& b,
                      bool trans_b, float* c, int64_t n, bool accumulate) {
  const int64_t k = trans_b ? b.cols() : b.rows();
  const int64_t m = trans_b ? b.rows() : b.cols();
  ML_DCHECK(n >= 0 && k > 0 && m > 0);
  if (n == 0) return;
  GemmIm2ColEngine(DensePackA(a, trans_a, n, k), b, trans_b, c, n, k, m,
                   accumulate);
}

int64_t DirectIm2ColRuns() { return tls_direct_im2col_runs; }

PackedA PackAOnce(const float* a, bool trans_a, int64_t n, int64_t k,
                  int64_t m) {
  ML_DCHECK(n > 0 && k > 0 && m > 0);
  PackedA packed;
  packed.a = a;
  packed.trans_a = trans_a;
  packed.n = n;
  packed.k = k;
  // A thin run reads `a` unpacked: its GEMV chains, or its few rows packed
  // per product by the engine.
  if (ThinColumns(m, trans_a) || n <= kThinRows) return packed;
  AlignedBuffer<float>& shared = Scratch().shared_a;
  shared.Reserve(packed.padded_n() * k);
  float* panels = shared.data();
  for (int64_t pc = 0; pc < k; pc += kGemmKC) {
    const int64_t kc = std::min(kGemmKC, k - pc);
    PackA(a, trans_a, n, k, 0, n, pc, kc,
          panels + packed.BlockOffset(0, pc, kc));
  }
  packed.panels = panels;
  return packed;
}

void GemmPacked(const PackedA& a, const float* b, bool trans_b, float* c,
                int64_t m, bool accumulate) {
  if (a.panels == nullptr) {
    metalora::GemmPacked(a.a, a.trans_a, b, trans_b, c, a.n, a.k, m,
                         accumulate);
    return;
  }
  GemmPackedTiled(SharedPackA(a), DensePackB(b, trans_b, a.k, m), c, a.n,
                  a.k, m, accumulate);
}

void GemmPackedIm2Col(const PackedA& a, const Im2ColOperand& b, bool trans_b,
                      float* c, bool accumulate) {
  ML_DCHECK((trans_b ? b.cols() : b.rows()) == a.k);
  if (a.panels == nullptr) {
    // Thin: the engine packs op(A) on the spot (an im2col operand is not a
    // dense op(B)ᵀ to run rows or columns over).
    GemmPackedIm2Col(a.a, a.trans_a, b, trans_b, c, a.n, accumulate);
    return;
  }
  const int64_t m = trans_b ? b.rows() : b.cols();
  GemmIm2ColEngine(SharedPackA(a), b, trans_b, c, a.n, a.k, m, accumulate);
}

}  // namespace gemm_detail

namespace {

template <bool kFused>
METALORA_ALWAYS_INLINE inline void ReferenceLoop(const float* a, bool trans_a,
                                                 const float* b, bool trans_b,
                                                 float* c, int64_t n,
                                                 int64_t k, int64_t m,
                                                 bool accumulate) {
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float acc = accumulate ? c[i * m + j] : 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = MulAddStep<kFused>(a[AIndex(trans_a, n, k, i, p)],
                                 b[BIndex(trans_b, k, m, p, j)], acc);
      }
      c[i * m + j] = acc;
    }
  }
}

#if METALORA_GEMM_AVX2_CLONES
METALORA_AVX2_FMA_TARGET void ReferenceLoopFused(const float* a, bool trans_a,
                                                 const float* b, bool trans_b,
                                                 float* c, int64_t n,
                                                 int64_t k, int64_t m,
                                                 bool accumulate) {
  ReferenceLoop<true>(a, trans_a, b, trans_b, c, n, k, m, accumulate);
}
#endif

GemmIsa DetectGemmIsa() {
#if METALORA_GEMM_AVX2_CLONES
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return GemmIsa::kAvx2Fma;
  }
#endif
  return GemmIsa::kPortable;
}

}  // namespace

GemmIsa ActiveGemmIsa() {
  static const GemmIsa isa = DetectGemmIsa();
  return isa;
}

const char* GemmIsaName(GemmIsa isa) {
  return isa == GemmIsa::kAvx2Fma ? "avx2+fma" : "portable";
}

void GemmReference(const float* a, bool trans_a, const float* b, bool trans_b,
                   float* c, int64_t n, int64_t k, int64_t m,
                   bool accumulate) {
#if METALORA_GEMM_AVX2_CLONES
  if (gemm_detail::FusedMulAdd()) {
    ReferenceLoopFused(a, trans_a, b, trans_b, c, n, k, m, accumulate);
    return;
  }
#endif
  ReferenceLoop<false>(a, trans_a, b, trans_b, c, n, k, m, accumulate);
}

}  // namespace metalora
