#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <vector>

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

// Packing scratch, per thread, aligned to a cache line so vector
// loads from packed panels never straddle lines (std::vector only
// guarantees alignof(float) and relied on allocator luck). Every GEMM
// runs on its caller's thread, and callers are long-lived, so the
// buffers amortize to zero allocations in steady state — the same
// grow-once-reuse-forever contract as the autograd WorkspaceArena, held
// here because the tensor layer sits below autograd and cannot see it.
// The shared-A buffer holds a whole op(A) packed once by PackAOnce for a
// run of GEMMs; it stays valid until the same thread packs again.
thread_local gemm_detail::AlignedBuffer<float> tls_pack_a;
thread_local gemm_detail::AlignedBuffer<float> tls_pack_b;
thread_local gemm_detail::AlignedBuffer<float> tls_pack_shared_a;

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

using MicroKernelFn = void (*)(const float* ap, const float* bp, int64_t kc,
                               float* c, int64_t ldc, bool accumulate);

#if METALORA_GEMM_AVX2_CLONES

// AVX2+FMA micro-kernel: 6 rows × 2 ymm columns of accumulators (12 of
// the 16 vector registers), one broadcast and two B loads per k step.
METALORA_AVX2_FMA_TARGET void MicroKernelAvx2(const float* ap,
                                              const float* bp, int64_t kc,
                                              float* c, int64_t ldc,
                                              bool accumulate) {
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
    const __m256 b0 = _mm256_loadu_ps(bp + p * kGemmNR);
    const __m256 b1 = _mm256_loadu_ps(bp + p * kGemmNR + 8);
    const float* av = ap + p * kGemmMR;
    for (int64_t r = 0; r < kGemmMR; ++r) {
      const __m256 ar = _mm256_broadcast_ss(av + r);
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
typedef float V4f __attribute__((vector_size(16)));

inline V4f V4Load(const float* p) {
  V4f v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
inline void V4Store(float* p, V4f v) { __builtin_memcpy(p, &v, sizeof(v)); }
inline V4f V4Splat(float s) { return V4f{s, s, s, s}; }

void MicroKernelPortable(const float* __restrict__ ap,
                         const float* __restrict__ bp, int64_t kc,
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
    const float* bh = bp + j0;
    for (int64_t p = 0; p < kc; ++p) {
      const V4f b0 = V4Load(bh + p * kGemmNR);
      const V4f b1 = V4Load(bh + p * kGemmNR + 4);
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
void MicroKernelPortable(const float* ap, const float* bp, int64_t kc,
                         float* c, int64_t ldc, bool accumulate) {
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
    const float* bh = bp + j0;
    for (int64_t p = 0; p < kc; ++p) {
      const float* av = ap + p * kGemmMR;
      const float* bv = bh + p * kGemmNR;
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

// 8×8 block: row jj of the block is src + rows[jj], 8 floats; step v of
// the panel gets element v of every row. Written in the vector
// extensions, it compiles to AVX unpacks, shuffles and lane permutes once
// inlined into the AVX2 clone below.
typedef float V8f __attribute__((vector_size(32)));

struct Transpose8x8Avx2 {
  static constexpr int64_t kV = 8;
  METALORA_ALWAYS_INLINE static void Run(const float* src,
                                         const int64_t* rows, float* d) {
    // No V8f crosses a call: outside an AVX function that is an ABI
    // change (-Wpsabi), so loads and stores are plain memcpys.
    V8f r0, r1, r2, r3, r4, r5, r6, r7;
    __builtin_memcpy(&r0, src + rows[0], sizeof(V8f));
    __builtin_memcpy(&r1, src + rows[1], sizeof(V8f));
    __builtin_memcpy(&r2, src + rows[2], sizeof(V8f));
    __builtin_memcpy(&r3, src + rows[3], sizeof(V8f));
    __builtin_memcpy(&r4, src + rows[4], sizeof(V8f));
    __builtin_memcpy(&r5, src + rows[5], sizeof(V8f));
    __builtin_memcpy(&r6, src + rows[6], sizeof(V8f));
    __builtin_memcpy(&r7, src + rows[7], sizeof(V8f));
    // Pairs, then quads, interleaved within each 128-bit lane.
    const V8f t0 = __builtin_shufflevector(r0, r1, 0, 8, 1, 9, 4, 12, 5, 13);
    const V8f t1 = __builtin_shufflevector(r0, r1, 2, 10, 3, 11, 6, 14, 7, 15);
    const V8f t2 = __builtin_shufflevector(r2, r3, 0, 8, 1, 9, 4, 12, 5, 13);
    const V8f t3 = __builtin_shufflevector(r2, r3, 2, 10, 3, 11, 6, 14, 7, 15);
    const V8f t4 = __builtin_shufflevector(r4, r5, 0, 8, 1, 9, 4, 12, 5, 13);
    const V8f t5 = __builtin_shufflevector(r4, r5, 2, 10, 3, 11, 6, 14, 7, 15);
    const V8f t6 = __builtin_shufflevector(r6, r7, 0, 8, 1, 9, 4, 12, 5, 13);
    const V8f t7 = __builtin_shufflevector(r6, r7, 2, 10, 3, 11, 6, 14, 7, 15);
    const V8f u0 = __builtin_shufflevector(t0, t2, 0, 1, 8, 9, 4, 5, 12, 13);
    const V8f u1 = __builtin_shufflevector(t0, t2, 2, 3, 10, 11, 6, 7, 14, 15);
    const V8f u2 = __builtin_shufflevector(t1, t3, 0, 1, 8, 9, 4, 5, 12, 13);
    const V8f u3 = __builtin_shufflevector(t1, t3, 2, 3, 10, 11, 6, 7, 14, 15);
    const V8f u4 = __builtin_shufflevector(t4, t6, 0, 1, 8, 9, 4, 5, 12, 13);
    const V8f u5 = __builtin_shufflevector(t4, t6, 2, 3, 10, 11, 6, 7, 14, 15);
    const V8f u6 = __builtin_shufflevector(t5, t7, 0, 1, 8, 9, 4, 5, 12, 13);
    const V8f u7 = __builtin_shufflevector(t5, t7, 2, 3, 10, 11, 6, 7, 14, 15);
    // Low lanes hold steps 0-3, high lanes steps 4-7.
    const V8f o0 = __builtin_shufflevector(u0, u4, 0, 1, 2, 3, 8, 9, 10, 11);
    const V8f o1 = __builtin_shufflevector(u1, u5, 0, 1, 2, 3, 8, 9, 10, 11);
    const V8f o2 = __builtin_shufflevector(u2, u6, 0, 1, 2, 3, 8, 9, 10, 11);
    const V8f o3 = __builtin_shufflevector(u3, u7, 0, 1, 2, 3, 8, 9, 10, 11);
    const V8f o4 = __builtin_shufflevector(u0, u4, 4, 5, 6, 7, 12, 13, 14, 15);
    const V8f o5 = __builtin_shufflevector(u1, u5, 4, 5, 6, 7, 12, 13, 14, 15);
    const V8f o6 = __builtin_shufflevector(u2, u6, 4, 5, 6, 7, 12, 13, 14, 15);
    const V8f o7 = __builtin_shufflevector(u3, u7, 4, 5, 6, 7, 12, 13, 14, 15);
    __builtin_memcpy(d + 0 * kGemmNR, &o0, sizeof(V8f));
    __builtin_memcpy(d + 1 * kGemmNR, &o1, sizeof(V8f));
    __builtin_memcpy(d + 2 * kGemmNR, &o2, sizeof(V8f));
    __builtin_memcpy(d + 3 * kGemmNR, &o3, sizeof(V8f));
    __builtin_memcpy(d + 4 * kGemmNR, &o4, sizeof(V8f));
    __builtin_memcpy(d + 5 * kGemmNR, &o5, sizeof(V8f));
    __builtin_memcpy(d + 6 * kGemmNR, &o6, sizeof(V8f));
    __builtin_memcpy(d + 7 * kGemmNR, &o7, sizeof(V8f));
  }
};

METALORA_AVX2_FMA_TARGET void PackIm2ColBTransposedAvx2(
    const gemm_detail::Im2ColOperand& op, int64_t pc, int64_t kc, int64_t jc,
    int64_t nc, float* bp) {
  PackIm2ColBTransposed<Transpose8x8Avx2>(op, pc, kc, jc, nc, bp);
}

#endif  // METALORA_GEMM_AVX2_CLONES

#if defined(__GNUC__) || defined(__clang__)

// The portable 4×4 block, in the vector extensions' shuffles.
struct Transpose4x4Portable {
  static constexpr int64_t kV = 4;
  METALORA_ALWAYS_INLINE static void Run(const float* src,
                                         const int64_t* rows, float* d) {
    const V4f r0 = V4Load(src + rows[0]), r1 = V4Load(src + rows[1]);
    const V4f r2 = V4Load(src + rows[2]), r3 = V4Load(src + rows[3]);
    const V4f t0 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
    const V4f t1 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
    const V4f t2 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
    const V4f t3 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
    V4Store(d + 0 * kGemmNR, __builtin_shufflevector(t0, t2, 0, 1, 4, 5));
    V4Store(d + 1 * kGemmNR, __builtin_shufflevector(t0, t2, 2, 3, 6, 7));
    V4Store(d + 2 * kGemmNR, __builtin_shufflevector(t1, t3, 0, 1, 4, 5));
    V4Store(d + 3 * kGemmNR, __builtin_shufflevector(t1, t3, 2, 3, 6, 7));
  }
};

#endif

// Full tiles write straight to C; tail tiles run the same kernel on a
// padded scratch tile (padded operand entries are zero, so the extra
// lanes compute garbage-free zeros) and copy the valid region out.
// The kernel is a template argument, so the ISA is chosen once per GEMM
// call and each micro-tile makes a direct call.
template <MicroKernelFn kKernel>
void MicroTile(const float* ap, const float* bp, int64_t kc, float* c,
               int64_t ldc, int64_t mr, int64_t nr, bool accumulate) {
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
// latency of the one before: 32 when A is stored [k, n] (the rows of one
// p are contiguous, so that is four vector chains), else 8, then a 4, 2
// and 1 tail.
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
// the layout (measured over n, k ≤ 512):
//   - columns: m ≤ 4 when A is stored [k, n], m ≤ 2 when it is [n, k];
//   - rows: n ≤ 2 when B is stored [k, m].
// The callers run m == 1 and n == 1 (any layout) as one inline GEMV
// ahead of these, so a one-row or one-column product pays no routing.
constexpr int64_t kThinCols = 4;
constexpr int64_t kThinColsRowMajorA = 2;
constexpr int64_t kThinRows = 2;

bool ThinColumns(int64_t m, bool trans_a) {
  return m <= (trans_a ? kThinCols : kThinColsRowMajorA);
}

bool ThinRows(int64_t n, bool trans_b) {
  return n <= kThinRows && !trans_b;
}

// The GEMV routes' gathered vector operand and strided output column.
thread_local gemm_detail::AlignedBuffer<float> tls_gemv_x;
thread_local gemm_detail::AlignedBuffer<float> tls_gemv_y;

// C[:, j] (+)= op(A) · op(B)[:, j] for every j < m, with `column(j)`
// returning op(B)'s column j as k contiguous floats; each column of C
// goes through scratch. Out of line, like GemmThin, to keep it out of the
// engine's callers.
template <typename ColumnFn>
[[gnu::noinline]] void GemvColumns(const float* a, bool trans_a,
                                   const ColumnFn& column, float* c,
                                   int64_t n, int64_t k, int64_t m,
                                   bool accumulate) {
  tls_gemv_y.Reserve(n);
  float* y = tls_gemv_y.data();
  for (int64_t j = 0; j < m; ++j) {
    if (accumulate) {
      for (int64_t i = 0; i < n; ++i) y[i] = c[i * m + j];
    }
    GemvPath(a, trans_a, column(j), y, n, k, accumulate);
    for (int64_t i = 0; i < n; ++i) c[i * m + j] = y[i];
  }
}

// Column j of a dense op(B): contiguous in place when B is stored [m, k],
// else gathered into scratch.
auto DenseColumn(const float* b, bool trans_b, int64_t k, int64_t m) {
  return [=](int64_t j) -> const float* {
    if (trans_b) return b + j * k;
    tls_gemv_x.Reserve(k);
    float* x = tls_gemv_x.data();
    for (int64_t p = 0; p < k; ++p) x[p] = b[p * m + j];
    return x;
  };
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
    GemvColumns(a, trans_a, DenseColumn(b, trans_b, k, m), c, n, k, m,
                accumulate);
    return true;
  }
  if (ThinRows(n, trans_b)) {
    GemvRowsOfC(a, trans_a, b, trans_b, c, n, k, m, accumulate);
    return true;
  }
  return false;
}

// Tile publication: readers acquire-load a pointer to an immutable triple,
// so the sweep can swap in its winner while other threads are mid-GEMM
// without a data race. Until the sweep runs, everyone sees the defaults.
constexpr GemmTiles kDefaultTiles{};
std::atomic<const GemmTiles*> g_tiles{&kDefaultTiles};
std::atomic<bool> g_autotuned{false};
std::once_flag g_autotune_once;

// First GEMM at or above this flop count (2·n·k·m) triggers the sweep:
// roughly a 204³ product. Unit-test and sanitizer workloads stay below it.
constexpr double kAutotuneFlopThreshold = 1.7e7;

// One blocked GEMM with an explicit tile triple, on one ISA's kernel.
// `pack_a(ic, mc, pc, kc)` returns the mc×kc block of op(A) at (ic, pc)
// in PackA's panel layout: packed on the spot into the executing thread's
// scratch for a dense matrix, or read from a PackAOnce operand. `pack_b(pc,
// kc, jc, nc, bp)` packs the kc×nc block of op(B) at (pc, jc) into PackB's
// panel layout: PackB itself for a dense matrix, or PackIm2ColB for a
// conv input lowered as it is packed. Row blocks start on MR-row panel
// boundaries of op(A), and k panels accumulate through C in p order, so
// the blocking never changes an output element's accumulation chain.
template <MicroKernelFn kKernel, typename PackAFn, typename PackBFn>
void GemmPackedTiledOn(const PackAFn& pack_a, const PackBFn& pack_b,
                       float* c, int64_t n, int64_t k, int64_t m,
                       bool accumulate, const GemmTiles& tiles) {
  for (int64_t jc = 0; jc < m; jc += tiles.nc) {
    const int64_t nc = std::min(tiles.nc, m - jc);
    const int64_t b_panels = (nc + kGemmNR - 1) / kGemmNR;
    for (int64_t pc = 0; pc < k; pc += tiles.kc) {
      const int64_t kc = std::min(tiles.kc, k - pc);
      // Panels after the first accumulate onto the partial sums already
      // stored in C; storing and reloading float32 is exact, so the
      // per-element accumulation chain stays p = 0..k-1 in order.
      const bool acc_panel = accumulate || pc > 0;
      tls_pack_b.Reserve(b_panels * kc * kGemmNR);
      pack_b(pc, kc, jc, nc, tls_pack_b.data());
      const float* bp = tls_pack_b.data();
      for (int64_t ic = 0; ic < n; ic += tiles.mc) {
        const int64_t mc = std::min(tiles.mc, n - ic);
        const float* ap = pack_a(ic, mc, pc, kc);
        for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
          const int64_t nr = std::min(kGemmNR, nc - jr);
          const float* bpanel = bp + (jr / kGemmNR) * kc * kGemmNR;
          for (int64_t ir = 0; ir < mc; ir += kGemmMR) {
            const int64_t mr = std::min(kGemmMR, mc - ir);
            MicroTile<kKernel>(ap + (ir / kGemmMR) * kc * kGemmMR, bpanel,
                               kc, c + (ic + ir) * m + jc + jr, m, mr, nr,
                               acc_panel);
          }
        }
      }
    }
  }
}

thread_local int64_t tls_packed_engine_runs = 0;

// Every fp32 GEMM and the autotune sweep land here; the blocked engine
// reads the ISA once per call.
template <typename PackAFn, typename PackBFn>
void GemmPackedTiled(const PackAFn& pack_a, const PackBFn& pack_b, float* c,
                     int64_t n, int64_t k, int64_t m, bool accumulate,
                     const GemmTiles& tiles) {
  ++tls_packed_engine_runs;
#if METALORA_GEMM_AVX2_CLONES
  if (gemm_detail::FusedMulAdd()) {
    GemmPackedTiledOn<MicroKernelAvx2>(pack_a, pack_b, c, n, k, m,
                                       accumulate, tiles);
    return;
  }
#endif
  GemmPackedTiledOn<MicroKernelPortable>(pack_a, pack_b, c, n, k, m,
                                         accumulate, tiles);
}

// The dense A source: PackA into the calling thread's scratch.
auto DensePackA(const float* a, bool trans_a, int64_t n, int64_t k) {
  return [=](int64_t ic, int64_t mc, int64_t pc, int64_t kc) {
    gemm_detail::AlignedBuffer<float>& abuf = tls_pack_a;
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

// The dense B packer: PackB over a stored [k,m] (or [m,k]) matrix.
auto DensePackB(const float* b, bool trans_b, int64_t k, int64_t m) {
  return [=](int64_t pc, int64_t kc, int64_t jc, int64_t nc, float* bp) {
    PackB(b, trans_b, k, m, pc, kc, jc, nc, bp);
  };
}

// The im2col B packer: a conv input lowered as it is packed.
auto Im2ColPackB(const gemm_detail::Im2ColOperand& b, bool trans_b) {
  return [&b, trans_b](int64_t pc, int64_t kc, int64_t jc, int64_t nc,
                       float* bp) {
    gemm_detail::PackIm2ColBFp32(b, trans_b, pc, kc, jc, nc, bp);
  };
}

// Candidate triples for the sweep: the compile-time default plus variants
// that shift the L2/L3 balance (shallower/deeper k panels, narrower/wider
// row and column blocks). MC stays a multiple of kGemmMR and NC of kGemmNR
// so panel math never changes shape, only extent.
constexpr GemmTiles kTileCandidates[] = {
    {96, 256, 1024}, {48, 256, 2048}, {192, 256, 512},
    {96, 512, 1024}, {144, 128, 2048},
};

// Times each candidate on one 256³ product (one warm-up + two timed reps,
// best rep wins) and publishes the fastest triple. ~500 MFLOP total: tens
// of milliseconds, paid once per process and only by workloads that run
// GEMMs large enough for tiling to matter.
void RunAutotuneSweep() {
  constexpr int64_t kDim = 256;
  std::vector<float> a(static_cast<size_t>(kDim * kDim));
  std::vector<float> b(a.size());
  std::vector<float> c(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>((i % 13) - 6) * 0.25f;
    b[i] = static_cast<float>((i % 7) - 3) * 0.5f;
  }
  const GemmTiles* best = &kDefaultTiles;
  double best_nanos = std::numeric_limits<double>::infinity();
  for (const GemmTiles& t : kTileCandidates) {
    double fastest = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      GemmPackedTiled(DensePackA(a.data(), false, kDim, kDim),
                      DensePackB(b.data(), false, kDim, kDim), c.data(), kDim,
                      kDim, kDim, /*accumulate=*/false, t);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count();
      if (rep > 0) fastest = std::min(fastest, ns);
    }
    if (fastest < best_nanos) {
      best_nanos = fastest;
      best = &t;
    }
  }
  g_tiles.store(best, std::memory_order_release);
  g_autotuned.store(true, std::memory_order_release);
}

}  // namespace

int64_t PackedEngineRuns() { return tls_packed_engine_runs; }

// The bf16 tier keeps its own tile state next to its blocked loop in
// gemm_lowp.cc (the sweep has to time that loop); the public API branches
// per precision here. Int8 has no tile choice (single-pass prepacked
// pipeline) and reports the fp32 slot.
GemmTiles CurrentGemmTiles(OpPrecision precision) {
  if (precision == OpPrecision::kBf16) {
    return gemm_detail::Bf16CurrentGemmTiles();
  }
  return *g_tiles.load(std::memory_order_acquire);
}

GemmTiles AutotuneGemmTiles(OpPrecision precision) {
  if (precision == OpPrecision::kBf16) {
    return gemm_detail::Bf16AutotuneGemmTiles();
  }
  std::call_once(g_autotune_once, RunAutotuneSweep);
  return CurrentGemmTiles(OpPrecision::kFp32);
}

bool GemmTilesAutotuned(OpPrecision precision) {
  if (precision == OpPrecision::kBf16) {
    return gemm_detail::Bf16GemmTilesAutotuned();
  }
  return g_autotuned.load(std::memory_order_acquire);
}

namespace {

// The first GEMM large enough for tiling to matter runs the sweep.
void AutotuneIfLarge(int64_t n, int64_t k, int64_t m) {
  if (!g_autotuned.load(std::memory_order_acquire) &&
      2.0 * static_cast<double>(n) * static_cast<double>(k) *
              static_cast<double>(m) >=
          kAutotuneFlopThreshold) {
    AutotuneGemmTiles();
  }
}

}  // namespace

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
  AutotuneIfLarge(n, k, m);
  GemmPackedTiled(DensePackA(a, trans_a, n, k), DensePackB(b, trans_b, k, m),
                  c, n, k, m, accumulate,
                  *g_tiles.load(std::memory_order_acquire));
}

namespace gemm_detail {

void PackIm2ColBFp32(const Im2ColOperand& op, bool trans_b, int64_t pc,
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
  PackIm2ColB(op, trans_b, pc, kc, jc, nc, bp, [](float v) { return v; });
}

const float* Im2ColVector(const Im2ColOperand& op, bool trans_b, int64_t j) {
  thread_local AlignedBuffer<float> x;
  const int64_t k = trans_b ? op.cols() : op.rows();
  x.Reserve(k);
  if (trans_b) {
    const float* src = op.input + op.RowOffset(j);
    for (int64_t p = 0; p < k; ++p) x.data()[p] = src[op.ColOffset(p)];
  } else {
    const float* src = op.input + op.ColOffset(j);
    for (int64_t p = 0; p < k; ++p) x.data()[p] = src[op.RowOffset(p)];
  }
  return x.data();
}

void GemmPackedIm2Col(const float* a, bool trans_a, const Im2ColOperand& b,
                      bool trans_b, float* c, int64_t n, bool accumulate) {
  const int64_t k = trans_b ? b.cols() : b.rows();
  const int64_t m = trans_b ? b.rows() : b.cols();
  ML_DCHECK(n >= 0 && k > 0 && m > 0);
  if (n == 0) return;
  if (m == 1) {
    GemvPath(a, trans_a, Im2ColVector(b, trans_b, 0), c, n, k, accumulate);
    return;
  }
  if (ThinColumns(m, trans_a)) {
    // op(B) is an im2col operand, so only the column route applies.
    GemvColumns(
        a, trans_a, [&](int64_t j) { return Im2ColVector(b, trans_b, j); },
        c, n, k, m, accumulate);
    return;
  }
  AutotuneIfLarge(n, k, m);
  GemmPackedTiled(DensePackA(a, trans_a, n, k), Im2ColPackB(b, trans_b), c, n,
                  k, m, accumulate, *g_tiles.load(std::memory_order_acquire));
}

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
  AutotuneIfLarge(n, k, m);
  packed.tiles = *g_tiles.load(std::memory_order_acquire);
  tls_pack_shared_a.Reserve(packed.padded_n() * k);
  float* panels = tls_pack_shared_a.data();
  for (int64_t pc = 0; pc < k; pc += packed.tiles.kc) {
    const int64_t kc = std::min(packed.tiles.kc, k - pc);
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
                  a.k, m, accumulate, a.tiles);
}

void GemmPackedIm2Col(const PackedA& a, const Im2ColOperand& b, bool trans_b,
                      float* c, bool accumulate) {
  const int64_t m = trans_b ? b.rows() : b.cols();
  ML_DCHECK((trans_b ? b.cols() : b.rows()) == a.k);
  if (a.panels == nullptr) {
    // Thin: the column route, or the engine packing op(A)'s few rows on
    // the spot (an im2col operand is not a dense op(B)ᵀ to run rows over).
    GemmPackedIm2Col(a.a, a.trans_a, b, trans_b, c, a.n, accumulate);
    return;
  }
  GemmPackedTiled(SharedPackA(a), Im2ColPackB(b, trans_b), c, a.n, a.k, m,
                  accumulate, a.tiles);
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
