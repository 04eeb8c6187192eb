// Low-precision GEMM tier: bf16 packed engine (dynamic + prepacked) and
// the int8 prepacked serving path, plus the quantized-shadow registry.
//
// The bf16 blocked loop mirrors gemm.cc's fp32 loop structurally — same
// panel layouts, same p = 0..k-1 single-accumulator chains, same padded
// tail handling — with bf16 storage and fp32 accumulation. All three
// back-ends (AVX2, vector-extension, scalar) are mirrored. See gemm.h
// and lowp.h for the contracts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "tensor/gemm.h"
#include "tensor/gemm_detail.h"
#include "tensor/lowp.h"

#if METALORA_GEMM_AVX2_CLONES
#include <immintrin.h>
#endif

namespace metalora {

namespace {

using gemm_detail::AIndex;
using gemm_detail::BIndex;
using gemm_detail::MulAddStep;
using lowp::Bf16FromF32;
using lowp::F32FromBf16;
using lowp::QuantizeValue;
using lowp::RoundToBf16;

// Packing scratch for the low-precision tier, cache-line aligned like the
// fp32 engine's (gemm.cc). Separate buffers per element type: a bf16 GEMM
// nested under an fp32 one (never happens today, but nothing forbids it)
// must not alias the fp32 scratch.
// A panels store the *rounded* bf16 values pre-widened to fp32: identical
// numerics to 16-bit storage (RoundToBf16 is exactly the widen-after-pack
// value) but the micro-kernel broadcasts a float directly instead of
// converting a scalar per (row, p) step. A is the small operand — n×k
// bytes — so doubling its pack footprint costs nothing while B, the
// bandwidth term, stays 2 bytes/element.
thread_local gemm_detail::AlignedBuffer<float> tls_pack_abf;
thread_local gemm_detail::AlignedBuffer<uint16_t> tls_pack_b16;
// A whole op(A) packed once by PackAOnceBf16 for a run of GEMMs (see
// gemm.cc's shared-A buffer): valid until the same thread packs again.
thread_local gemm_detail::AlignedBuffer<float> tls_pack_shared_abf;
thread_local gemm_detail::AlignedBuffer<int8_t> tls_pack_a8;
thread_local std::vector<float> tls_row_scales;

// ---------------------------------------------------------------------------
// bf16 packing (PackA/PackB with round-to-nearest-even on the copy)
// ---------------------------------------------------------------------------

// Mirrors gemm.cc PackA: micro-panels of kGemmMR rows, kc steps of MR
// contiguous values, zero-padded past mc. Values are rounded to bf16 and
// stored pre-widened (see tls_pack_abf above).
void PackABf16(const float* a, bool trans_a, int64_t n, int64_t k, int64_t ic,
               int64_t mc, int64_t pc, int64_t kc, float* ap) {
  (void)n;
  const int64_t panels = (mc + kGemmMR - 1) / kGemmMR;
  for (int64_t q = 0; q < panels; ++q) {
    const int64_t row0 = ic + q * kGemmMR;
    const int64_t rows = std::min(kGemmMR, mc - q * kGemmMR);
    float* dst = ap + q * kc * kGemmMR;
    for (int64_t p = 0; p < kc; ++p) {
      float* d = dst + p * kGemmMR;
      for (int64_t r = 0; r < rows; ++r) {
        d[r] = RoundToBf16(a[AIndex(trans_a, n, k, row0 + r, pc + p)]);
      }
      for (int64_t r = rows; r < kGemmMR; ++r) d[r] = 0.0f;
    }
  }
}

// Mirrors gemm.cc PackB: micro-panels of kGemmNR columns, kc steps of NR
// contiguous values, zero-padded past nc.
void PackBBf16(const float* b, bool trans_b, int64_t k, int64_t m, int64_t pc,
               int64_t kc, int64_t jc, int64_t nc, uint16_t* bp) {
  const int64_t panels = (nc + kGemmNR - 1) / kGemmNR;
  for (int64_t t = 0; t < panels; ++t) {
    const int64_t col0 = jc + t * kGemmNR;
    const int64_t cols = std::min(kGemmNR, nc - t * kGemmNR);
    uint16_t* dst = bp + t * kc * kGemmNR;
    for (int64_t p = 0; p < kc; ++p) {
      uint16_t* d = dst + p * kGemmNR;
      for (int64_t j = 0; j < cols; ++j) {
        d[j] = Bf16FromF32(b[BIndex(trans_b, k, m, pc + p, col0 + j)]);
      }
      for (int64_t j = cols; j < kGemmNR; ++j) d[j] = 0;
    }
  }
}

// ---------------------------------------------------------------------------
// bf16 micro-kernel: three back-ends mirroring gemm.cc's fp32 trio.
// Loads widen bf16 -> fp32 (a 16-bit left shift); accumulation is fp32.
// ---------------------------------------------------------------------------

using MicroKernelBf16Fn = void (*)(const float* ap, const uint16_t* bp,
                                   int64_t kc, float* c, int64_t ldc,
                                   bool accumulate);

#if METALORA_GEMM_AVX2_CLONES

// 8 bf16 values -> 8 fp32 lanes: zero-extend to 32 bits, shift into the
// high half. Exact (bf16 is a prefix of fp32).
METALORA_AVX2_FMA_TARGET inline __m256 LoadBf16x8(const uint16_t* p) {
  const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
}

METALORA_AVX2_FMA_TARGET void MicroKernelBf16Avx2(const float* ap,
                                                  const uint16_t* bp,
                                                  int64_t kc, float* c,
                                                  int64_t ldc,
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
    const __m256 b0 = LoadBf16x8(bp + p * kGemmNR);
    const __m256 b1 = LoadBf16x8(bp + p * kGemmNR + 8);
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

// Vector-extension back-end: same named-accumulator 6×8 half-tile scheme
// as the fp32 kernel (see gemm.cc for why the accumulators are named, not
// an array). bf16 loads widen via __builtin_convertvector + shift, which
// GCC/Clang lower to pmovzxwd/pslld-class instructions.
typedef float V4f __attribute__((vector_size(16)));
typedef uint16_t V4u16 __attribute__((vector_size(8)));
typedef uint32_t V4u32 __attribute__((vector_size(16)));

inline V4f Bf16Load4(const uint16_t* p) {
  V4u16 h;
  __builtin_memcpy(&h, p, sizeof(h));
  const V4u32 w = __builtin_convertvector(h, V4u32) << 16;
  V4f f;
  __builtin_memcpy(&f, &w, sizeof(f));
  return f;
}
inline void V4Store(float* p, V4f v) { __builtin_memcpy(p, &v, sizeof(v)); }
inline V4f V4Load(const float* p) {
  V4f v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
inline V4f V4Splat(float s) { return V4f{s, s, s, s}; }

void MicroKernelBf16Portable(const float* __restrict__ ap,
                             const uint16_t* __restrict__ bp, int64_t kc,
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
    const uint16_t* bh = bp + j0;
    for (int64_t p = 0; p < kc; ++p) {
      const V4f b0 = Bf16Load4(bh + p * kGemmNR);
      const V4f b1 = Bf16Load4(bh + p * kGemmNR + 4);
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

// Scalar fallback: fixed-bound loops, same p-ordered accumulation chain.
void MicroKernelBf16Portable(const float* ap, const uint16_t* bp,
                             int64_t kc, float* c, int64_t ldc,
                             bool accumulate) {
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
    const uint16_t* bh = bp + j0;
    for (int64_t p = 0; p < kc; ++p) {
      const float* av = ap + p * kGemmMR;
      const uint16_t* bv = bh + p * kGemmNR;
      for (int64_t r = 0; r < kGemmMR; ++r) {
        const float ar = av[r];
        for (int64_t j = 0; j < kHalf; ++j)
          acc[r][j] += ar * F32FromBf16(bv[j]);
      }
    }
    for (int64_t r = 0; r < kGemmMR; ++r)
      for (int64_t j = 0; j < kHalf; ++j) c[r * ldc + j0 + j] = acc[r][j];
  }
}

#endif  // portable back-end

// Padded-tail wrapper, mirroring gemm.cc MicroTile (the kernel is a
// template argument: one ISA decision per GEMM call).
template <MicroKernelBf16Fn kKernel>
void MicroTileBf16(const float* ap, const uint16_t* bp, int64_t kc,
                   float* c, int64_t ldc, int64_t mr, int64_t nr,
                   bool accumulate) {
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

// GEMV fast path (m == 1) at bf16 semantics: both operands rounded, fp32
// chain in p order — identical to GemmReferenceBf16 for this shape.
template <bool kFused>
METALORA_ALWAYS_INLINE inline void Bf16GemvRows(const float* a, bool trans_a,
                                                const float* x, float* y,
                                                int64_t n, int64_t k,
                                                bool accumulate) {
  for (int64_t i = 0; i < n; ++i) {
    float acc = accumulate ? y[i] : 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      acc = MulAddStep<kFused>(RoundToBf16(a[AIndex(trans_a, n, k, i, p)]),
                               RoundToBf16(x[p]), acc);
    }
    y[i] = acc;
  }
}

#if METALORA_GEMM_AVX2_CLONES
METALORA_AVX2_FMA_TARGET void Bf16GemvRowsAvx2(const float* a, bool trans_a,
                                               const float* x, float* y,
                                               int64_t n, int64_t k,
                                               bool accumulate) {
  Bf16GemvRows<true>(a, trans_a, x, y, n, k, accumulate);
}
#endif

void Bf16GemvPath(const float* a, bool trans_a, const float* x, float* y,
                  int64_t n, int64_t k, bool accumulate) {
#if METALORA_GEMM_AVX2_CLONES
  if (gemm_detail::FusedMulAdd()) {
    Bf16GemvRowsAvx2(a, trans_a, x, y, n, k, accumulate);
    return;
  }
#endif
  Bf16GemvRows<false>(a, trans_a, x, y, n, k, accumulate);
}

// One blocked bf16 GEMM with an explicit tile triple, on one ISA's
// kernel. Structure mirrors gemm.cc GemmPackedTiledOn — fp32 partial sums
// are stored and reloaded between k panels (exact), so any kc produces
// the same bits, and row blocks start on MR-row panel boundaries. `pack_a`
// returns PackABf16 blocks: packed on the spot for a dense matrix, or read
// from a PackAOnceBf16 operand. `pack_b` packs bf16 B panels: PackBBf16
// for a dense matrix, or PackIm2ColB for a conv input lowered as it is
// packed.
template <MicroKernelBf16Fn kKernel, typename PackAFn, typename PackBFn>
void GemmPackedBf16TiledOn(const PackAFn& pack_a, const PackBFn& pack_b,
                           float* c, int64_t n, int64_t k, int64_t m,
                           bool accumulate, const GemmTiles& tiles) {
  for (int64_t jc = 0; jc < m; jc += tiles.nc) {
    const int64_t nc = std::min(tiles.nc, m - jc);
    const int64_t b_panels = (nc + kGemmNR - 1) / kGemmNR;
    for (int64_t pc = 0; pc < k; pc += tiles.kc) {
      const int64_t kc = std::min(tiles.kc, k - pc);
      const bool acc_panel = accumulate || pc > 0;
      tls_pack_b16.Reserve(b_panels * kc * kGemmNR);
      pack_b(pc, kc, jc, nc, tls_pack_b16.data());
      const uint16_t* bp = tls_pack_b16.data();
      for (int64_t ic = 0; ic < n; ic += tiles.mc) {
        const int64_t mc = std::min(tiles.mc, n - ic);
        const float* ap = pack_a(ic, mc, pc, kc);
        for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
          const int64_t nr = std::min(kGemmNR, nc - jr);
          const uint16_t* bpanel = bp + (jr / kGemmNR) * kc * kGemmNR;
          for (int64_t ir = 0; ir < mc; ir += kGemmMR) {
            const int64_t mr = std::min(kGemmMR, mc - ir);
            MicroTileBf16<kKernel>(ap + (ir / kGemmMR) * kc * kGemmMR, bpanel,
                                   kc, c + (ic + ir) * m + jc + jr, m, mr, nr,
                                   acc_panel);
          }
        }
      }
    }
  }
}

// Every bf16 blocked GEMM and the bf16 autotune sweep land here; reads
// the ISA once per call.
template <typename PackAFn, typename PackBFn>
void GemmPackedBf16Tiled(const PackAFn& pack_a, const PackBFn& pack_b,
                         float* c, int64_t n, int64_t k, int64_t m,
                         bool accumulate, const GemmTiles& tiles) {
#if METALORA_GEMM_AVX2_CLONES
  if (gemm_detail::FusedMulAdd()) {
    GemmPackedBf16TiledOn<MicroKernelBf16Avx2>(pack_a, pack_b, c, n, k, m,
                                               accumulate, tiles);
    return;
  }
#endif
  GemmPackedBf16TiledOn<MicroKernelBf16Portable>(pack_a, pack_b, c, n, k, m,
                                                 accumulate, tiles);
}

// The dense bf16 A source: PackABf16 into the executing thread's scratch.
auto DensePackABf16(const float* a, bool trans_a, int64_t n, int64_t k) {
  return [=](int64_t ic, int64_t mc, int64_t pc, int64_t kc) {
    gemm_detail::AlignedBuffer<float>& abuf = tls_pack_abf;
    abuf.Reserve((mc + kGemmMR - 1) / kGemmMR * kc * kGemmMR);
    PackABf16(a, trans_a, n, k, ic, mc, pc, kc, abuf.data());
    return static_cast<const float*>(abuf.data());
  };
}

// The A source of a PackAOnceBf16 operand (see gemm.cc SharedPackA).
auto SharedPackABf16(const gemm_detail::PackedA& a) {
  return [&a](int64_t ic, int64_t, int64_t pc, int64_t kc) {
    return a.panels + a.BlockOffset(ic, pc, kc);
  };
}

// The dense bf16 B packer: PackBBf16 over a stored [k,m] (or [m,k]) matrix.
auto DensePackBBf16(const float* b, bool trans_b, int64_t k, int64_t m) {
  return [=](int64_t pc, int64_t kc, int64_t jc, int64_t nc, uint16_t* bp) {
    PackBBf16(b, trans_b, k, m, pc, kc, jc, nc, bp);
  };
}

// bf16 tile publication, mirroring the fp32 machinery in gemm.cc. The
// candidate list skews toward deeper k panels than fp32's: bf16 panels
// are half the bytes, so twice the depth fits the same cache footprint.
constexpr GemmTiles kBf16DefaultTiles{};
std::atomic<const GemmTiles*> g_bf16_tiles{&kBf16DefaultTiles};
std::atomic<bool> g_bf16_autotuned{false};
std::once_flag g_bf16_autotune_once;

constexpr GemmTiles kBf16TileCandidates[] = {
    {96, 256, 1024}, {96, 512, 2048}, {48, 512, 2048},
    {192, 256, 1024}, {144, 1024, 2048},
};

constexpr double kAutotuneFlopThreshold = 1.7e7;  // same bar as fp32

void RunBf16AutotuneSweep() {
  constexpr int64_t kDim = 256;
  std::vector<float> a(static_cast<size_t>(kDim * kDim));
  std::vector<float> b(a.size());
  std::vector<float> c(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>((i % 13) - 6) * 0.25f;
    b[i] = static_cast<float>((i % 7) - 3) * 0.5f;
  }
  const GemmTiles* best = &kBf16DefaultTiles;
  double best_nanos = std::numeric_limits<double>::infinity();
  for (const GemmTiles& t : kBf16TileCandidates) {
    double fastest = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      GemmPackedBf16Tiled(DensePackABf16(a.data(), false, kDim, kDim),
                          DensePackBBf16(b.data(), false, kDim, kDim),
                          c.data(), kDim, kDim, kDim, /*accumulate=*/false, t);
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
  g_bf16_tiles.store(best, std::memory_order_release);
  g_bf16_autotuned.store(true, std::memory_order_release);
}

}  // namespace

namespace gemm_detail {

GemmTiles Bf16CurrentGemmTiles() {
  return *g_bf16_tiles.load(std::memory_order_acquire);
}

GemmTiles Bf16AutotuneGemmTiles() {
  std::call_once(g_bf16_autotune_once, RunBf16AutotuneSweep);
  return Bf16CurrentGemmTiles();
}

bool Bf16GemmTilesAutotuned() {
  return g_bf16_autotuned.load(std::memory_order_acquire);
}

}  // namespace gemm_detail

namespace {

// The first bf16 GEMM large enough for tiling to matter runs the sweep.
void Bf16AutotuneIfLarge(int64_t n, int64_t k, int64_t m) {
  if (!g_bf16_autotuned.load(std::memory_order_acquire) &&
      2.0 * static_cast<double>(n) * static_cast<double>(k) *
              static_cast<double>(m) >=
          kAutotuneFlopThreshold) {
    gemm_detail::Bf16AutotuneGemmTiles();
  }
}

}  // namespace

void GemmPackedBf16(const float* a, bool trans_a, const float* b, bool trans_b,
                    float* c, int64_t n, int64_t k, int64_t m,
                    bool accumulate) {
  ML_DCHECK(n >= 0 && k >= 0 && m >= 0);
  if (n == 0 || m == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(c, c + n * m, 0.0f);
    return;
  }
  if (m == 1) {
    Bf16GemvPath(a, trans_a, b, c, n, k, accumulate);
    return;
  }
  Bf16AutotuneIfLarge(n, k, m);
  GemmPackedBf16Tiled(DensePackABf16(a, trans_a, n, k),
                      DensePackBBf16(b, trans_b, k, m), c, n, k, m, accumulate,
                      *g_bf16_tiles.load(std::memory_order_acquire));
}

namespace gemm_detail {

PackedA PackAOnceBf16(const float* a, bool trans_a, int64_t n, int64_t k,
                      int64_t m) {
  ML_DCHECK(n > 0 && k > 0 && m > 0);
  PackedA packed;
  packed.a = a;
  packed.trans_a = trans_a;
  packed.n = n;
  packed.k = k;
  if (m == 1) return packed;  // GEMV-shaped: the GEMV reads `a`
  Bf16AutotuneIfLarge(n, k, m);
  packed.tiles = *g_bf16_tiles.load(std::memory_order_acquire);
  tls_pack_shared_abf.Reserve(packed.padded_n() * k);
  float* panels = tls_pack_shared_abf.data();
  for (int64_t pc = 0; pc < k; pc += packed.tiles.kc) {
    const int64_t kc = std::min(packed.tiles.kc, k - pc);
    PackABf16(a, trans_a, n, k, 0, n, pc, kc,
               panels + packed.BlockOffset(0, pc, kc));
  }
  packed.panels = panels;
  return packed;
}

void GemmPackedBf16Im2Col(const PackedA& a, const Im2ColOperand& b,
                          bool trans_b, float* c, bool accumulate) {
  const int64_t m = trans_b ? b.rows() : b.cols();
  ML_DCHECK((trans_b ? b.cols() : b.rows()) == a.k);
  if (a.panels == nullptr) {
    ML_DCHECK(m == 1);
    Bf16GemvPath(a.a, a.trans_a, Im2ColVector(b, trans_b, 0), c, a.n, a.k,
                 accumulate);
    return;
  }
  GemmPackedBf16Tiled(
      SharedPackABf16(a),
      [&b, trans_b](int64_t pc, int64_t kc, int64_t jc, int64_t nc,
                    uint16_t* bp) {
        PackIm2ColB(b, trans_b, pc, kc, jc, nc, bp,
                    [](float v) { return Bf16FromF32(v); });
      },
      c, a.n, a.k, m, accumulate, a.tiles);
}

}  // namespace gemm_detail

namespace {

template <bool kFused>
METALORA_ALWAYS_INLINE inline void Bf16ReferenceLoop(
    const float* a, bool trans_a, const float* b, bool trans_b, float* c,
    int64_t n, int64_t k, int64_t m, bool accumulate) {
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float acc = accumulate ? c[i * m + j] : 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = MulAddStep<kFused>(RoundToBf16(a[AIndex(trans_a, n, k, i, p)]),
                                 RoundToBf16(b[BIndex(trans_b, k, m, p, j)]),
                                 acc);
      }
      c[i * m + j] = acc;
    }
  }
}

#if METALORA_GEMM_AVX2_CLONES
METALORA_AVX2_FMA_TARGET void Bf16ReferenceLoopFused(
    const float* a, bool trans_a, const float* b, bool trans_b, float* c,
    int64_t n, int64_t k, int64_t m, bool accumulate) {
  Bf16ReferenceLoop<true>(a, trans_a, b, trans_b, c, n, k, m, accumulate);
}
#endif

}  // namespace

void GemmReferenceBf16(const float* a, bool trans_a, const float* b,
                       bool trans_b, float* c, int64_t n, int64_t k, int64_t m,
                       bool accumulate) {
#if METALORA_GEMM_AVX2_CLONES
  if (gemm_detail::FusedMulAdd()) {
    Bf16ReferenceLoopFused(a, trans_a, b, trans_b, c, n, k, m, accumulate);
    return;
  }
#endif
  Bf16ReferenceLoop<false>(a, trans_a, b, trans_b, c, n, k, m, accumulate);
}

namespace lowp {

float MaxAbsScale(const float* base, int64_t count, int64_t stride) {
  float max_abs = 0.0f;
  for (int64_t p = 0; p < count; ++p) {
    const float v = std::fabs(base[p * stride]);
    if (v > max_abs) max_abs = v;
  }
  return max_abs / 127.0f;
}

Bf16PackedWeight PackBf16Weight(const float* b, bool trans_b, int64_t k,
                                int64_t m) {
  ML_CHECK(k >= 0 && m >= 0);
  Bf16PackedWeight w;
  w.k = k;
  w.m = m;
  const int64_t panels = (m + kGemmNR - 1) / kGemmNR;
  w.panels.resize(static_cast<size_t>(panels * k * kGemmNR));
  // One full-depth pack (pc = 0, kc = k): the exact layout the dynamic
  // path produces for its first k panel, so both feed the same kernel
  // and round identically.
  if (k > 0 && m > 0) {
    PackBBf16(b, trans_b, k, m, 0, k, 0, m, w.panels.data());
  }
  return w;
}

Int8PackedWeight PackInt8Weight(const float* b, bool trans_b, int64_t k,
                                int64_t m) {
  ML_CHECK(k >= 0 && m >= 0);
  // int32 accumulator headroom: k * 127^2 must stay below 2^31.
  ML_CHECK(k <= (int64_t{1} << 17))
      << "int8 tier supports k up to 131072, got " << k;
  Int8PackedWeight w;
  w.k = k;
  w.m = m;
  const int64_t panels = (m + kGemmNR - 1) / kGemmNR;
  w.panels.assign(static_cast<size_t>(panels * k * kGemmNR), 0);
  w.scales.assign(static_cast<size_t>(m), 0.0f);
  for (int64_t j = 0; j < m; ++j) {
    // Output channel j of op(B): contiguous when trans_b ([m,k] rows),
    // strided otherwise.
    const float* chan = trans_b ? b + j * k : b + j;
    const int64_t stride = trans_b ? 1 : m;
    const float scale = MaxAbsScale(chan, k, stride);
    w.scales[static_cast<size_t>(j)] = scale;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    int8_t* panel = w.panels.data() + (j / kGemmNR) * k * kGemmNR;
    const int64_t jj = j % kGemmNR;
    for (int64_t p = 0; p < k; ++p) {
      panel[p * kGemmNR + jj] = QuantizeValue(chan[p * stride], inv);
    }
  }
  return w;
}

namespace {

// int8 micro-kernel over a kGemmMR × kGemmNR int32 accumulator tile. The
// portable version is a fixed-bound loop left to the compiler; the AVX2
// clone widens each 16-lane B step to two ymm of int32 and keeps the tile
// in 12 ymm accumulators. Integer accumulation is exact and
// order-independent, so packed-vs-reference bit-identity needs no
// back-end mirroring — correctness is layout-only. The fp32 dequantize
// epilogue stays outside the clone (GemmInt8PrepackedOn), so the clone's
// FMA target can never fuse it.
using MicroKernelInt8Fn = void (*)(const int8_t* ap, const int8_t* bp,
                                   int64_t kc, int32_t* acc);

void MicroKernelInt8Portable(const int8_t* ap, const int8_t* bp, int64_t kc,
                             int32_t* acc) {
  for (int64_t p = 0; p < kc; ++p) {
    const int8_t* av = ap + p * kGemmMR;
    const int8_t* bv = bp + p * kGemmNR;
    for (int64_t r = 0; r < kGemmMR; ++r) {
      const int32_t ar = av[r];
      int32_t* arow = acc + r * kGemmNR;
      for (int64_t j = 0; j < kGemmNR; ++j) {
        arow[j] += ar * static_cast<int32_t>(bv[j]);
      }
    }
  }
}

#if METALORA_GEMM_AVX2_CLONES
METALORA_AVX2_FMA_TARGET void MicroKernelInt8Avx2(const int8_t* ap,
                                                  const int8_t* bp,
                                                  int64_t kc, int32_t* acc) {
  __m256i tile[kGemmMR][2];
  for (int64_t r = 0; r < kGemmMR; ++r) {
    tile[r][0] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc + r * kGemmNR));
    tile[r][1] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc + r * kGemmNR + 8));
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m128i b8 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp + p * kGemmNR));
    const __m256i b0 = _mm256_cvtepi8_epi32(b8);
    const __m256i b1 = _mm256_cvtepi8_epi32(_mm_srli_si128(b8, 8));
    const int8_t* av = ap + p * kGemmMR;
    for (int64_t r = 0; r < kGemmMR; ++r) {
      const __m256i ar = _mm256_set1_epi32(av[r]);
      tile[r][0] = _mm256_add_epi32(tile[r][0], _mm256_mullo_epi32(ar, b0));
      tile[r][1] = _mm256_add_epi32(tile[r][1], _mm256_mullo_epi32(ar, b1));
    }
  }
  for (int64_t r = 0; r < kGemmMR; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kGemmNR),
                        tile[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kGemmNR + 8),
                        tile[r][1]);
  }
}
#endif

// The integer tiles of an int8 prepacked GEMM over quantized, packed
// activation panels `qa`, on one ISA's kernel, each followed by the
// portable dequantize-on-store epilogue.
template <MicroKernelInt8Fn kKernel>
void GemmInt8PrepackedOn(const int8_t* qa, const float* a_scales,
                         const Int8PackedWeight& w, float* c, int64_t n,
                         bool accumulate) {
  const int64_t k = w.k;
  const int64_t m = w.m;
  const int8_t* wpanels = w.panels.data();
  const float* scales_b = w.scales.data();
  const int64_t a_panels = (n + kGemmMR - 1) / kGemmMR;
  int32_t acc[kGemmMR * kGemmNR];
  for (int64_t q = 0; q < a_panels; ++q) {
    const int64_t row0 = q * kGemmMR;
    const int64_t mr = std::min(kGemmMR, n - row0);
    const int8_t* apanel = qa + q * k * kGemmMR;
    for (int64_t jr = 0; jr < m; jr += kGemmNR) {
      const int64_t nr = std::min(kGemmNR, m - jr);
      const int8_t* bpanel = wpanels + (jr / kGemmNR) * k * kGemmNR;
      std::memset(acc, 0, sizeof(acc));
      kKernel(apanel, bpanel, k, acc);
      for (int64_t r = 0; r < mr; ++r) {
        const float sa = a_scales[row0 + r];
        float* crow = c + (row0 + r) * m + jr;
        for (int64_t j = 0; j < nr; ++j) {
          const float v = static_cast<float>(acc[r * kGemmNR + j]) *
                          (sa * scales_b[jr + j]);
          crow[j] = accumulate ? crow[j] + v : v;
        }
      }
    }
  }
}

// Full-depth bf16 pass over a prepacked weight on one ISA's kernel.
template <MicroKernelBf16Fn kKernel>
void GemmBf16PrepackedOn(const float* a, const Bf16PackedWeight& w, float* c,
                         int64_t n, bool accumulate) {
  const int64_t k = w.k;
  const int64_t m = w.m;
  const uint16_t* bp = w.panels.data();
  gemm_detail::AlignedBuffer<float>& abuf = tls_pack_abf;
  for (int64_t ic = 0; ic < n; ic += kGemmMC) {
    const int64_t mc = std::min(kGemmMC, n - ic);
    const int64_t a_panels = (mc + kGemmMR - 1) / kGemmMR;
    abuf.Reserve(a_panels * k * kGemmMR);
    PackABf16(a, /*trans_a=*/false, n, k, ic, mc, 0, k, abuf.data());
    for (int64_t jr = 0; jr < m; jr += kGemmNR) {
      const int64_t nr = std::min(kGemmNR, m - jr);
      const uint16_t* bpanel = bp + (jr / kGemmNR) * k * kGemmNR;
      for (int64_t ir = 0; ir < mc; ir += kGemmMR) {
        const int64_t mr = std::min(kGemmMR, mc - ir);
        MicroTileBf16<kKernel>(abuf.data() + (ir / kGemmMR) * k * kGemmMR,
                               bpanel, k, c + (ic + ir) * m + jr, m, mr, nr,
                               accumulate);
      }
    }
  }
}

}  // namespace

void GemmBf16Prepacked(const float* a, const Bf16PackedWeight& w, float* c,
                       int64_t n, bool accumulate) {
  const int64_t k = w.k;
  const int64_t m = w.m;
  ML_DCHECK(n >= 0);
  if (n == 0 || m == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(c, c + n * m, 0.0f);
    return;
  }
  // Single full-depth pass (the pack is one kc = k block). Row panels of
  // MC bound the A scratch; fp32 partial-sum exactness makes the result
  // bit-identical to the dynamic GemmPackedBf16 on the same operands.
#if METALORA_GEMM_AVX2_CLONES
  if (gemm_detail::FusedMulAdd()) {
    GemmBf16PrepackedOn<MicroKernelBf16Avx2>(a, w, c, n, accumulate);
    return;
  }
#endif
  GemmBf16PrepackedOn<MicroKernelBf16Portable>(a, w, c, n, accumulate);
}

void GemmInt8Prepacked(const float* a, const Int8PackedWeight& w, float* c,
                       int64_t n, bool accumulate) {
  const int64_t k = w.k;
  const int64_t m = w.m;
  ML_DCHECK(n >= 0);
  if (n == 0 || m == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(c, c + n * m, 0.0f);
    return;
  }
  // Quantize + pack the activation rows once per call: per-row symmetric
  // scales, same MR-panel layout as the fp32 engine's PackA.
  const int64_t a_panels = (n + kGemmMR - 1) / kGemmMR;
  tls_pack_a8.Reserve(a_panels * k * kGemmMR);
  tls_row_scales.resize(static_cast<size_t>(n));
  int8_t* qa = tls_pack_a8.data();
  float* a_scales = tls_row_scales.data();
  for (int64_t q = 0; q < a_panels; ++q) {
    const int64_t row0 = q * kGemmMR;
    const int64_t rows = std::min(kGemmMR, n - row0);
    int8_t* dst = qa + q * k * kGemmMR;
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = a + (row0 + r) * k;
      const float scale = MaxAbsScale(row, k, 1);
      a_scales[row0 + r] = scale;
      const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        dst[p * kGemmMR + r] = QuantizeValue(row[p], inv);
      }
    }
    for (int64_t r = rows; r < kGemmMR; ++r) {
      for (int64_t p = 0; p < k; ++p) dst[p * kGemmMR + r] = 0;
    }
  }
#if METALORA_GEMM_AVX2_CLONES
  if (gemm_detail::FusedMulAdd()) {
    GemmInt8PrepackedOn<MicroKernelInt8Avx2>(qa, a_scales, w, c, n,
                                             accumulate);
    return;
  }
#endif
  GemmInt8PrepackedOn<MicroKernelInt8Portable>(qa, a_scales, w, c, n,
                                               accumulate);
}

void GemmReferenceInt8(const float* a, const float* b, bool trans_b, float* c,
                       int64_t n, int64_t k, int64_t m, bool accumulate) {
  // Quantization-model oracle: identical quantized operands (same helper
  // calls as the pack paths), exact integer sums, identical dequantize
  // expression — so it matches GemmInt8Prepacked bit-for-bit.
  std::vector<int8_t> qa(static_cast<size_t>(std::max<int64_t>(k, 1)));
  std::vector<int8_t> qb(static_cast<size_t>(std::max<int64_t>(k, 1) *
                                             std::max<int64_t>(m, 1)));
  std::vector<float> sb(static_cast<size_t>(m));
  for (int64_t j = 0; j < m; ++j) {
    const float* chan = trans_b ? b + j * k : b + j;
    const int64_t stride = trans_b ? 1 : m;
    const float scale = MaxAbsScale(chan, k, stride);
    sb[static_cast<size_t>(j)] = scale;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      qb[static_cast<size_t>(j * k + p)] = QuantizeValue(chan[p * stride], inv);
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    const float* row = a + i * k;
    const float sa = MaxAbsScale(row, k, 1);
    const float inv = sa > 0.0f ? 1.0f / sa : 0.0f;
    for (int64_t p = 0; p < k; ++p) qa[static_cast<size_t>(p)] = QuantizeValue(row[p], inv);
    for (int64_t j = 0; j < m; ++j) {
      int64_t acc = 0;
      const int8_t* bq = qb.data() + j * k;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<int64_t>(qa[static_cast<size_t>(p)]) * bq[p];
      }
      const float v = static_cast<float>(acc) * (sa * sb[static_cast<size_t>(j)]);
      c[i * m + j] = accumulate ? c[i * m + j] + v : v;
    }
  }
}

// ---------------------------------------------------------------------------
// Quantized-shadow registry
// ---------------------------------------------------------------------------

namespace {

struct ShadowEntry {
  Tensor anchor;  // holds the weight's storage alive while registered
  int64_t refcount = 0;
  int64_t k = 0;
  int64_t m = 0;
  std::shared_ptr<const Bf16PackedWeight> bf16;
  std::shared_ptr<const Int8PackedWeight> int8;
};

std::shared_mutex& ShadowMutex() {
  static std::shared_mutex mu;
  return mu;
}

std::unordered_map<const float*, ShadowEntry>& ShadowMap() {
  static auto* map = new std::unordered_map<const float*, ShadowEntry>();
  return *map;
}

}  // namespace

void ShadowHandle::Release() {
  if (key_ == nullptr) return;
  std::unique_lock<std::shared_mutex> lock(ShadowMutex());
  auto& map = ShadowMap();
  auto it = map.find(key_);
  if (it != map.end() && --it->second.refcount <= 0) map.erase(it);
  key_ = nullptr;
}

ShadowHandle RegisterWeightShadow(const Tensor& weight) {
  ML_CHECK(weight.defined() && weight.rank() == 2)
      << "shadow registration expects a rank-2 [out, in] weight";
  const int64_t m = weight.dim(0);  // output channels
  const int64_t k = weight.dim(1);  // reduction depth
  const float* key = weight.data();
  std::unique_lock<std::shared_mutex> lock(ShadowMutex());
  auto& entry = ShadowMap()[key];
  if (entry.refcount == 0) {
    // First registration: pack both forms under the lock. Packing is
    // O(k·m) — publish/freeze-time work by design, never per request.
    entry.anchor = weight;
    entry.k = k;
    entry.m = m;
    entry.bf16 = std::make_shared<Bf16PackedWeight>(
        PackBf16Weight(weight.data(), /*trans_b=*/true, k, m));
    entry.int8 = std::make_shared<Int8PackedWeight>(
        PackInt8Weight(weight.data(), /*trans_b=*/true, k, m));
  }
  ML_CHECK(entry.k == k && entry.m == m)
      << "shadow re-registration with a different shape";
  ++entry.refcount;
  return ShadowHandle(key);
}

std::shared_ptr<const Bf16PackedWeight> FindBf16Shadow(const float* data,
                                                       int64_t k, int64_t m) {
  std::shared_lock<std::shared_mutex> lock(ShadowMutex());
  const auto& map = ShadowMap();
  auto it = map.find(data);
  if (it == map.end() || it->second.k != k || it->second.m != m) return nullptr;
  return it->second.bf16;
}

std::shared_ptr<const Int8PackedWeight> FindInt8Shadow(const float* data,
                                                       int64_t k, int64_t m) {
  std::shared_lock<std::shared_mutex> lock(ShadowMutex());
  const auto& map = ShadowMap();
  auto it = map.find(data);
  if (it == map.end() || it->second.k != k || it->second.m != m) return nullptr;
  return it->second.int8;
}

int64_t ShadowCount() {
  std::shared_lock<std::shared_mutex> lock(ShadowMutex());
  return static_cast<int64_t>(ShadowMap().size());
}

}  // namespace lowp
}  // namespace metalora
