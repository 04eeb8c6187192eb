#include "tensor/conv_thin.h"

#include <algorithm>

#if METALORA_GEMM_AVX2_CLONES
#include <immintrin.h>
#endif

namespace metalora {
namespace conv_thin {
namespace {

using gemm_detail::AlignedBuffer;
using gemm_detail::Im2ColOperand;
using gemm_detail::MulAddStep;

// fp32 route limits, measured against the engine at batch 32 over planes
// 16², 8² and 4² (route / engine time; CHANGES.md has the tables):
//   - few rows: a weight gradient of at most 8 rows (3×3, C 3–32: 0.15–0.94;
//     at 12 rows the 3-channel stem ran 1.4× the engine's time);
//   - few columns: C·Kh·Kw at most 8 (O 8–32: 0.19–0.77, except one column
//     at O = 32, 0.96–1.23; at 12 columns up to 1.02, at 16 up to 1.84);
//   - shallow forward: a pointwise conv over at most 32 channels (O 2–256:
//     0.04–0.97; at 48 and 64 channels up to 1.26).
// Where both weight-gradient routes take a product (a 1×1 conv over at
// most 8 channels into at most 8), few rows took 0.7–1.2× few columns'
// time at 1–2 rows, 0.8–1.3× at 4 and 1.0–1.9× at 8.
constexpr int64_t kFewRowsLimit = 8;
constexpr int64_t kFewColumnsLimit = 8;
constexpr int64_t kShallowDepthLimit = 32;
constexpr int64_t kFewRowsFirst = 4;

// How many chains one pass keeps in registers: a few-rows pass holds
// kernel_w × rows accumulators (12 of the 16 vector registers at most),
// a few-columns pass 4 column accumulators beside its transposed block,
// a forward pass 4 rows × 2 vectors of output positions.
constexpr int64_t kMaxKernelW = 5;
constexpr int64_t kFewRowsPassRows[kMaxKernelW + 1] = {0, 4, 4, 4, 3, 2};
constexpr int64_t kFewColumnsPassCols = 4;
constexpr int64_t kPointwisePassRows = 4;

thread_local int64_t tls_route_runs = 0;

// Per-thread scratch, grow-once like the GEMM's pack buffers (function
// local: GCC 12 does not destroy thread_local variable templates).
struct Scratch {
  AlignedBuffer<float> image;  // channels-last padded sample
  AlignedBuffer<float> cols;   // gathered columns of a strided/padded conv
  AlignedBuffer<float> acc;    // one pass's chain values
};

Scratch& Buffers() {
  thread_local Scratch scratch;
  return scratch;
}

// One few-rows pass: `rows` rows of dw at one kernel row, for one block of
// kLanes channels, all kernel_w taps at once. acc[(i·kernel_w + kw)·kLanes
// + lane] carries the chains in and out.
struct FewRowsPass {
  const float* image;  // channels-last sample at the kernel row, block start
  int64_t pixel;       // floats per pixel (channels rounded up to kLanes)
  int64_t row_step;    // floats between output rows: stride · wp · pixel
  int64_t col_step;    // floats between output columns: stride · pixel
  int64_t ho, wo;
  const float* gout;   // the pass's first gout row; rows are ho·wo apart
  float* acc;
};

// One few-columns pass over one block of kLanes rows of dw and up to
// kFewColumnsPassCols columns: acc[r·kLanes + lane].
struct FewColumnsPass {
  const float* const* gout;  // kLanes gout rows (the last one repeated)
  const float* x;            // column r of cols at x + r·ldx
  int64_t ldx;
  int64_t steps;             // Ho·Wo
  float* acc;
};

// One forward pass over up to kPointwisePassRows output rows.
struct PointwisePass {
  const float* w;  // the rows' weights, c apiece
  int64_t c;
  const float* x;  // c input rows of `steps` floats
  int64_t steps;
  float* out;      // the output rows, `steps` apart
};

using FewRowsFn = void (*)(const FewRowsPass&);
using FewColumnsFn = void (*)(const FewColumnsPass&);
using PointwiseFn = void (*)(const PointwisePass&);

#if METALORA_GEMM_AVX2_CLONES

// The AVX2+FMA clones: explicit fused multiply-adds, like MicroKernelAvx2,
// and broadcasts from values (the pointer form made GCC 12 keep the
// accumulators in memory there).
template <int kKw, int kRows>
METALORA_AVX2_FMA_TARGET void FewRowsAvx2(const FewRowsPass& p) {
  __m256 acc[kRows][kKw];
  for (int i = 0; i < kRows; ++i) {
    for (int k = 0; k < kKw; ++k) {
      acc[i][k] = _mm256_loadu_ps(p.acc + (i * kKw + k) * 8);
    }
  }
  const int64_t steps = p.ho * p.wo;
  int64_t s = 0;
  for (int64_t oh = 0; oh < p.ho; ++oh) {
    const float* px = p.image + oh * p.row_step;
    for (int64_t ow = 0; ow < p.wo; ++ow, ++s, px += p.col_step) {
      __m256 g[kRows];
      for (int i = 0; i < kRows; ++i) {
        g[i] = _mm256_set1_ps(p.gout[i * steps + s]);
      }
      for (int k = 0; k < kKw; ++k) {
        const __m256 v = _mm256_loadu_ps(px + k * p.pixel);
        for (int i = 0; i < kRows; ++i) {
          acc[i][k] = _mm256_fmadd_ps(g[i], v, acc[i][k]);
        }
      }
    }
  }
  for (int i = 0; i < kRows; ++i) {
    for (int k = 0; k < kKw; ++k) {
      _mm256_storeu_ps(p.acc + (i * kKw + k) * 8, acc[i][k]);
    }
  }
}

// One output position of a few-columns pass: gv holds it for the block's
// rows, and column r of cols has it at x[r·ldx].
template <int kCols>
METALORA_AVX2_FMA_TARGET METALORA_ALWAYS_INLINE inline void
FewColumnsStepAvx2(__m256 gv, const float* x, int64_t ldx,
                   __m256 (&acc)[kCols]) {
  for (int r = 0; r < kCols; ++r) {
    acc[r] = _mm256_fmadd_ps(gv, _mm256_set1_ps(x[r * ldx]), acc[r]);
  }
}

template <int kCols>
METALORA_AVX2_FMA_TARGET void FewColumnsAvx2(const FewColumnsPass& p) {
  using gemm_detail::V8f;
  __m256 acc[kCols];
  for (int r = 0; r < kCols; ++r) acc[r] = _mm256_loadu_ps(p.acc + r * 8);
  int64_t s = 0;
  for (; s + 8 <= p.steps; s += 8) {
    V8f t0, t1, t2, t3, t4, t5, t6, t7;
    __builtin_memcpy(&t0, p.gout[0] + s, sizeof(V8f));
    __builtin_memcpy(&t1, p.gout[1] + s, sizeof(V8f));
    __builtin_memcpy(&t2, p.gout[2] + s, sizeof(V8f));
    __builtin_memcpy(&t3, p.gout[3] + s, sizeof(V8f));
    __builtin_memcpy(&t4, p.gout[4] + s, sizeof(V8f));
    __builtin_memcpy(&t5, p.gout[5] + s, sizeof(V8f));
    __builtin_memcpy(&t6, p.gout[6] + s, sizeof(V8f));
    __builtin_memcpy(&t7, p.gout[7] + s, sizeof(V8f));
    gemm_detail::Transpose8x8Avx2::InRegisters(t0, t1, t2, t3, t4, t5, t6,
                                               t7);
    const float* x = p.x + s;
    FewColumnsStepAvx2<kCols>(static_cast<__m256>(t0), x, p.ldx, acc);
    FewColumnsStepAvx2<kCols>(static_cast<__m256>(t1), x + 1, p.ldx, acc);
    FewColumnsStepAvx2<kCols>(static_cast<__m256>(t2), x + 2, p.ldx, acc);
    FewColumnsStepAvx2<kCols>(static_cast<__m256>(t3), x + 3, p.ldx, acc);
    FewColumnsStepAvx2<kCols>(static_cast<__m256>(t4), x + 4, p.ldx, acc);
    FewColumnsStepAvx2<kCols>(static_cast<__m256>(t5), x + 5, p.ldx, acc);
    FewColumnsStepAvx2<kCols>(static_cast<__m256>(t6), x + 6, p.ldx, acc);
    FewColumnsStepAvx2<kCols>(static_cast<__m256>(t7), x + 7, p.ldx, acc);
  }
  for (; s < p.steps; ++s) {
    float col[8];
    for (int j = 0; j < 8; ++j) col[j] = p.gout[j][s];
    FewColumnsStepAvx2<kCols>(_mm256_loadu_ps(col), p.x + s, p.ldx, acc);
  }
  for (int r = 0; r < kCols; ++r) _mm256_storeu_ps(p.acc + r * 8, acc[r]);
}

template <int kRows>
METALORA_AVX2_FMA_TARGET void PointwiseAvx2(const PointwisePass& p) {
  int64_t j = 0;
  for (; j + 16 <= p.steps; j += 16) {
    __m256 acc[kRows][2];
    for (int i = 0; i < kRows; ++i) {
      acc[i][0] = _mm256_setzero_ps();
      acc[i][1] = _mm256_setzero_ps();
    }
    for (int64_t r = 0; r < p.c; ++r) {
      const float* xr = p.x + r * p.steps + j;
      const __m256 x0 = _mm256_loadu_ps(xr);
      const __m256 x1 = _mm256_loadu_ps(xr + 8);
      for (int i = 0; i < kRows; ++i) {
        const __m256 wv = _mm256_set1_ps(p.w[i * p.c + r]);
        acc[i][0] = _mm256_fmadd_ps(wv, x0, acc[i][0]);
        acc[i][1] = _mm256_fmadd_ps(wv, x1, acc[i][1]);
      }
    }
    for (int i = 0; i < kRows; ++i) {
      _mm256_storeu_ps(p.out + i * p.steps + j, acc[i][0]);
      _mm256_storeu_ps(p.out + i * p.steps + j + 8, acc[i][1]);
    }
  }
  for (; j + 8 <= p.steps; j += 8) {
    __m256 acc[kRows];
    for (int i = 0; i < kRows; ++i) acc[i] = _mm256_setzero_ps();
    for (int64_t r = 0; r < p.c; ++r) {
      const __m256 xv = _mm256_loadu_ps(p.x + r * p.steps + j);
      for (int i = 0; i < kRows; ++i) {
        acc[i] = _mm256_fmadd_ps(_mm256_set1_ps(p.w[i * p.c + r]), xv, acc[i]);
      }
    }
    for (int i = 0; i < kRows; ++i) {
      _mm256_storeu_ps(p.out + i * p.steps + j, acc[i]);
    }
  }
  for (; j < p.steps; ++j) {
    for (int i = 0; i < kRows; ++i) {
      float acc = 0.0f;
      for (int64_t r = 0; r < p.c; ++r) {
        acc = MulAddStep<true>(p.w[i * p.c + r], p.x[r * p.steps + j], acc);
      }
      p.out[i * p.steps + j] = acc;
    }
  }
}

struct Avx2Kit {
  static constexpr int64_t kLanes = 8;
  static FewRowsFn FewRows(int64_t kw, int64_t rows) {
    static constexpr FewRowsFn kPasses[kMaxKernelW][4] = {
        {FewRowsAvx2<1, 1>, FewRowsAvx2<1, 2>, FewRowsAvx2<1, 3>,
         FewRowsAvx2<1, 4>},
        {FewRowsAvx2<2, 1>, FewRowsAvx2<2, 2>, FewRowsAvx2<2, 3>,
         FewRowsAvx2<2, 4>},
        {FewRowsAvx2<3, 1>, FewRowsAvx2<3, 2>, FewRowsAvx2<3, 3>,
         FewRowsAvx2<3, 4>},
        {FewRowsAvx2<4, 1>, FewRowsAvx2<4, 2>, FewRowsAvx2<4, 3>, nullptr},
        {FewRowsAvx2<5, 1>, FewRowsAvx2<5, 2>, nullptr, nullptr},
    };
    return kPasses[kw - 1][rows - 1];
  }
  static FewColumnsFn FewColumns(int64_t cols) {
    static constexpr FewColumnsFn kPasses[kFewColumnsPassCols] = {
        FewColumnsAvx2<1>, FewColumnsAvx2<2>, FewColumnsAvx2<3>,
        FewColumnsAvx2<4>};
    return kPasses[cols - 1];
  }
  static PointwiseFn Pointwise(int64_t rows) {
    static constexpr PointwiseFn kPasses[kPointwisePassRows] = {
        PointwiseAvx2<1>, PointwiseAvx2<2>, PointwiseAvx2<3>,
        PointwiseAvx2<4>};
    return kPasses[rows - 1];
  }
};

#endif  // METALORA_GEMM_AVX2_CLONES

#if defined(__GNUC__) || defined(__clang__)

// The portable twins: 4-lane vector-extension chains, each step a plain
// mul-then-add like MicroKernelPortable's (compiled outside any
// METALORA_AVX2_FMA_TARGET function, so nothing contracts them).
using gemm_detail::V4f;
using gemm_detail::V4Load;
using gemm_detail::V4Splat;
using gemm_detail::V4Store;

template <int kKw, int kRows>
void FewRowsPortable(const FewRowsPass& p) {
  V4f acc[kRows][kKw];
  for (int i = 0; i < kRows; ++i) {
    for (int k = 0; k < kKw; ++k) acc[i][k] = V4Load(p.acc + (i * kKw + k) * 4);
  }
  const int64_t steps = p.ho * p.wo;
  int64_t s = 0;
  for (int64_t oh = 0; oh < p.ho; ++oh) {
    const float* px = p.image + oh * p.row_step;
    for (int64_t ow = 0; ow < p.wo; ++ow, ++s, px += p.col_step) {
      V4f g[kRows];
      for (int i = 0; i < kRows; ++i) g[i] = V4Splat(p.gout[i * steps + s]);
      for (int k = 0; k < kKw; ++k) {
        const V4f v = V4Load(px + k * p.pixel);
        for (int i = 0; i < kRows; ++i) acc[i][k] += g[i] * v;
      }
    }
  }
  for (int i = 0; i < kRows; ++i) {
    for (int k = 0; k < kKw; ++k) V4Store(p.acc + (i * kKw + k) * 4, acc[i][k]);
  }
}

template <int kCols>
METALORA_ALWAYS_INLINE inline void FewColumnsStepPortable(V4f gv,
                                                          const float* x,
                                                          int64_t ldx,
                                                          V4f (&acc)[kCols]) {
  for (int r = 0; r < kCols; ++r) acc[r] += gv * V4Splat(x[r * ldx]);
}

template <int kCols>
void FewColumnsPortable(const FewColumnsPass& p) {
  V4f acc[kCols];
  for (int r = 0; r < kCols; ++r) acc[r] = V4Load(p.acc + r * 4);
  int64_t s = 0;
  for (; s + 4 <= p.steps; s += 4) {
    V4f t0 = V4Load(p.gout[0] + s), t1 = V4Load(p.gout[1] + s);
    V4f t2 = V4Load(p.gout[2] + s), t3 = V4Load(p.gout[3] + s);
    gemm_detail::Transpose4x4Portable::InRegisters(t0, t1, t2, t3);
    const float* x = p.x + s;
    FewColumnsStepPortable<kCols>(t0, x, p.ldx, acc);
    FewColumnsStepPortable<kCols>(t1, x + 1, p.ldx, acc);
    FewColumnsStepPortable<kCols>(t2, x + 2, p.ldx, acc);
    FewColumnsStepPortable<kCols>(t3, x + 3, p.ldx, acc);
  }
  for (; s < p.steps; ++s) {
    const V4f gv = {p.gout[0][s], p.gout[1][s], p.gout[2][s], p.gout[3][s]};
    FewColumnsStepPortable<kCols>(gv, p.x + s, p.ldx, acc);
  }
  for (int r = 0; r < kCols; ++r) V4Store(p.acc + r * 4, acc[r]);
}

template <int kRows>
void PointwisePortable(const PointwisePass& p) {
  int64_t j = 0;
  for (; j + 8 <= p.steps; j += 8) {
    V4f acc[kRows][2];
    for (int i = 0; i < kRows; ++i) acc[i][0] = acc[i][1] = V4f{};
    for (int64_t r = 0; r < p.c; ++r) {
      const float* xr = p.x + r * p.steps + j;
      const V4f x0 = V4Load(xr), x1 = V4Load(xr + 4);
      for (int i = 0; i < kRows; ++i) {
        const V4f wv = V4Splat(p.w[i * p.c + r]);
        acc[i][0] += wv * x0;
        acc[i][1] += wv * x1;
      }
    }
    for (int i = 0; i < kRows; ++i) {
      V4Store(p.out + i * p.steps + j, acc[i][0]);
      V4Store(p.out + i * p.steps + j + 4, acc[i][1]);
    }
  }
  for (; j < p.steps; ++j) {
    for (int i = 0; i < kRows; ++i) {
      float acc = 0.0f;
      for (int64_t r = 0; r < p.c; ++r) {
        acc = MulAddStep<false>(p.w[i * p.c + r], p.x[r * p.steps + j], acc);
      }
      p.out[i * p.steps + j] = acc;
    }
  }
}

struct PortableKit {
  static constexpr int64_t kLanes = 4;
  static FewRowsFn FewRows(int64_t kw, int64_t rows) {
    static constexpr FewRowsFn kPasses[kMaxKernelW][4] = {
        {FewRowsPortable<1, 1>, FewRowsPortable<1, 2>, FewRowsPortable<1, 3>,
         FewRowsPortable<1, 4>},
        {FewRowsPortable<2, 1>, FewRowsPortable<2, 2>, FewRowsPortable<2, 3>,
         FewRowsPortable<2, 4>},
        {FewRowsPortable<3, 1>, FewRowsPortable<3, 2>, FewRowsPortable<3, 3>,
         FewRowsPortable<3, 4>},
        {FewRowsPortable<4, 1>, FewRowsPortable<4, 2>, FewRowsPortable<4, 3>,
         nullptr},
        {FewRowsPortable<5, 1>, FewRowsPortable<5, 2>, nullptr, nullptr},
    };
    return kPasses[kw - 1][rows - 1];
  }
  static FewColumnsFn FewColumns(int64_t cols) {
    static constexpr FewColumnsFn kPasses[kFewColumnsPassCols] = {
        FewColumnsPortable<1>, FewColumnsPortable<2>, FewColumnsPortable<3>,
        FewColumnsPortable<4>};
    return kPasses[cols - 1];
  }
  static PointwiseFn Pointwise(int64_t rows) {
    static constexpr PointwiseFn kPasses[kPointwisePassRows] = {
        PointwisePortable<1>, PointwisePortable<2>, PointwisePortable<3>,
        PointwisePortable<4>};
    return kPasses[rows - 1];
  }
};

#endif  // vector extensions

// Whether this compiler has the vector extensions the kernels are
// written in; without them every product runs the engine.
constexpr bool kHaveKernels =
#if defined(__GNUC__) || defined(__clang__)
    true;
#else
    false;
#endif

// Runs `route(kit)` on this process's ISA and counts it.
template <typename Route>
void OnActiveIsa(const Route& route) {
  ++tls_route_runs;
#if METALORA_GEMM_AVX2_CLONES
  if (gemm_detail::FusedMulAdd()) {
    route(Avx2Kit{});
    return;
  }
#endif
#if defined(__GNUC__) || defined(__clang__)
  route(PortableKit{});
#else
  (void)route;
#endif
}

// Chain values of dw gathered into a pass's lanes, `lanes` of kLanes
// apart by `stride` (the rest zero), and scattered back.
template <int64_t kLanes>
void GatherLanes(const float* src, int64_t stride, int64_t lanes,
                 float* acc) {
  for (int64_t l = 0; l < lanes; ++l) acc[l] = src[l * stride];
  for (int64_t l = lanes; l < kLanes; ++l) acc[l] = 0.0f;
}

void ScatterLanes(const float* acc, int64_t stride, int64_t lanes,
                  float* dst) {
  for (int64_t l = 0; l < lanes; ++l) dst[l * stride] = acc[l];
}

// D's gradient: per block of kLanes channels and kernel row kh, passes of
// a few dw rows. Lane l of chain (i, kw) is dw[i, (c0 + l, kh, kw)], kk
// floats from lane l − 1.
template <typename Kit>
void FewRows(const float* gout, int64_t n, const float* in, int64_t c,
             int64_t h, int64_t w, const ConvGeom& g, float* dw) {
  constexpr int64_t kL = Kit::kLanes;
  const int64_t pad = g.padding, hp = h + 2 * pad, wp = w + 2 * pad;
  const int64_t pixel = (c + kL - 1) / kL * kL;
  // The channels-last, zero-padded copy of the sample, straight from the
  // unpadded input: image[(ih·wp + iw)·pixel + ch].
  Scratch& scratch = Buffers();
  scratch.image.Reserve(hp * wp * pixel);
  float* image = scratch.image.data();
  std::fill(image, image + hp * wp * pixel, 0.0f);
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t ih = 0; ih < h; ++ih) {
      const float* src = in + (ch * h + ih) * w;
      float* dst = image + ((ih + pad) * wp + pad) * pixel + ch;
      for (int64_t iw = 0; iw < w; ++iw) dst[iw * pixel] = src[iw];
    }
  }
  const int64_t kw = g.kernel_w, kk = g.kernel_h * kw, row_len = c * kk;
  const int64_t pass_rows = kFewRowsPassRows[kw];
  scratch.acc.Reserve(pass_rows * kw * kL);
  float* acc = scratch.acc.data();
  FewRowsPass pass;
  pass.pixel = pixel;
  pass.row_step = g.stride * wp * pixel;
  pass.col_step = g.stride * pixel;
  pass.ho = g.OutExtent(h, g.kernel_h);
  pass.wo = g.OutExtent(w, kw);
  pass.acc = acc;
  for (int64_t c0 = 0; c0 < c; c0 += kL) {
    const int64_t lanes = std::min(kL, c - c0);
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      pass.image = image + kh * wp * pixel + c0;
      for (int64_t i0 = 0; i0 < n; i0 += pass_rows) {
        const int64_t rows = std::min(pass_rows, n - i0);
        float* first = dw + i0 * row_len + c0 * kk + kh * kw;
        for (int64_t i = 0; i < rows; ++i) {
          for (int64_t k = 0; k < kw; ++k) {
            GatherLanes<kL>(first + i * row_len + k, kk, lanes,
                            acc + (i * kw + k) * kL);
          }
        }
        pass.gout = gout + i0 * pass.ho * pass.wo;
        Kit::FewRows(kw, rows)(pass);
        for (int64_t i = 0; i < rows; ++i) {
          for (int64_t k = 0; k < kw; ++k) {
            ScatterLanes(acc + (i * kw + k) * kL, kk, lanes,
                         first + i * row_len + k);
          }
        }
      }
    }
  }
}

// U's gradient: per block of kLanes dw rows, passes of a few columns. Lane
// l of chain r is dw[o0 + l, r], m floats from lane l − 1.
template <typename Kit>
void FewColumns(const float* gout, int64_t n, const Im2ColOperand& op,
                float* dw) {
  constexpr int64_t kL = Kit::kLanes;
  const int64_t m = op.rows(), steps = op.cols();
  // Row r of cols as `steps` contiguous floats: a pointwise conv's input
  // rows in place, else gathered once per sample.
  Scratch& scratch = Buffers();
  const float* x = op.input;
  int64_t ldx = op.h * op.w;
  if (op.kernel_h != 1 || op.kernel_w != 1 || op.stride != 1 ||
      op.h != op.ho || op.w != op.wo) {
    scratch.cols.Reserve(m * steps);
    float* cols = scratch.cols.data();
    for (int64_t r = 0; r < m; ++r) {
      const float* src = op.input + op.RowOffset(r);
      float* dst = cols + r * steps;
      for (int64_t oh = 0; oh < op.ho; ++oh) {
        const float* row = src + oh * op.stride * op.w;
        for (int64_t ow = 0; ow < op.wo; ++ow) *dst++ = row[ow * op.stride];
      }
    }
    x = cols;
    ldx = steps;
  }
  scratch.acc.Reserve(kFewColumnsPassCols * kL);
  float* acc = scratch.acc.data();
  const float* rows[kL];
  FewColumnsPass pass;
  pass.gout = rows;
  pass.ldx = ldx;
  pass.steps = steps;
  pass.acc = acc;
  for (int64_t o0 = 0; o0 < n; o0 += kL) {
    const int64_t lanes = std::min(kL, n - o0);
    // Lanes past the last row repeat it; they are never stored.
    for (int64_t l = 0; l < kL; ++l) {
      rows[l] = gout + (o0 + std::min(l, lanes - 1)) * steps;
    }
    for (int64_t r0 = 0; r0 < m; r0 += kFewColumnsPassCols) {
      const int64_t cols = std::min(kFewColumnsPassCols, m - r0);
      for (int64_t r = 0; r < cols; ++r) {
        GatherLanes<kL>(dw + o0 * m + r0 + r, m, lanes, acc + r * kL);
      }
      pass.x = x + r0 * ldx;
      Kit::FewColumns(cols)(pass);
      for (int64_t r = 0; r < cols; ++r) {
        ScatterLanes(acc + r * kL, m, lanes, dw + o0 * m + r0 + r);
      }
    }
  }
}

template <typename Kit>
void Pointwise(const float* w, int64_t n, const float* in, int64_t c,
               int64_t steps, float* out) {
  PointwisePass pass;
  pass.c = c;
  pass.x = in;
  pass.steps = steps;
  for (int64_t i0 = 0; i0 < n; i0 += kPointwisePassRows) {
    pass.w = w + i0 * c;
    pass.out = out + i0 * steps;
    Kit::Pointwise(std::min(kPointwisePassRows, n - i0))(pass);
  }
}

}  // namespace

WeightGradientRoute PickWeightGradientRoute(int64_t n, int64_t m,
                                            const ConvGeom& g) {
  const bool rows =
      kHaveKernels && n <= kFewRowsLimit && g.kernel_w <= kMaxKernelW;
  const bool cols = kHaveKernels && m <= kFewColumnsLimit;
  if (rows && (n <= kFewRowsFirst || !cols)) {
    return WeightGradientRoute::kFewRows;
  }
  if (cols) return WeightGradientRoute::kFewColumns;
  return WeightGradientRoute::kEngine;
}

void WeightGradientFewRows(const float* gout, int64_t n, const float* in,
                           int64_t c, int64_t h, int64_t w, const ConvGeom& g,
                           float* dw) {
  OnActiveIsa([&](auto kit) {
    FewRows<decltype(kit)>(gout, n, in, c, h, w, g, dw);
  });
}

void WeightGradientFewColumns(const float* gout, int64_t n,
                              const Im2ColOperand& cols, float* dw) {
  OnActiveIsa([&](auto kit) {
    FewColumns<decltype(kit)>(gout, n, cols, dw);
  });
}

bool PointwiseForwardTakes(int64_t c) {
  return kHaveKernels && c <= kShallowDepthLimit;
}

void PointwiseForward(const float* w, int64_t n, const float* in, int64_t c,
                      int64_t s, float* out) {
  OnActiveIsa([&](auto kit) {
    Pointwise<decltype(kit)>(w, n, in, c, s, out);
  });
}

int64_t RouteRuns() { return tls_route_runs; }

}  // namespace conv_thin
}  // namespace metalora
