// Internal helpers of the packed GEMM engine (gemm.cc: the one blocked
// engine over both B formats, fp32 and bf16; gemm_lowp.cc: the int8
// prepacked path and the shadow registry; conv_ops.cc: the conv lowering).
// Not part of the public tensor API — include only from src/tensor.
#ifndef METALORA_TENSOR_GEMM_DETAIL_H_
#define METALORA_TENSOR_GEMM_DETAIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/check.h"
#include "tensor/gemm.h"

namespace metalora {
namespace gemm_detail {

/// Grow-only scratch buffer aligned to a cache line (64 bytes), so vector
/// loads from packed panels never straddle lines and never depend on
/// allocator luck (std::vector<float> only guarantees alignof(float)).
/// Contents are NOT preserved across Reserve() growth — pack scratch is
/// fully rewritten before every use, so nothing is lost.
template <typename T>
class AlignedBuffer {
 public:
  static constexpr size_t kAlign = 64;

  AlignedBuffer() = default;
  ~AlignedBuffer() { std::free(data_); }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  int64_t capacity() const { return cap_; }

  /// Ensures capacity for at least `n` elements. Old contents are dropped
  /// on growth (see class comment).
  void Reserve(int64_t n) {
    if (n <= cap_) return;
    std::free(data_);
    // aligned_alloc requires the size to be a multiple of the alignment.
    const size_t bytes =
        (static_cast<size_t>(n) * sizeof(T) + kAlign - 1) / kAlign * kAlign;
    data_ = static_cast<T*>(std::aligned_alloc(kAlign, bytes));
    ML_CHECK(data_ != nullptr) << "AlignedBuffer: allocation failed";
    cap_ = n;
  }

 private:
  T* data_ = nullptr;
  int64_t cap_ = 0;
};

// A(i, p) of op(A): row-major [n,k], or stored [k,n] when transposed.
inline int64_t AIndex(bool trans_a, int64_t n, int64_t k, int64_t i,
                      int64_t p) {
  return trans_a ? p * n + i : i * k + p;
}

// B(p, j) of op(B): row-major [k,m], or stored [m,k] when transposed.
inline int64_t BIndex(bool trans_b, int64_t k, int64_t m, int64_t p,
                      int64_t j) {
  return trans_b ? j * k + p : p * m + j;
}

/// A conv input as a GEMM B operand: the im2col column matrix
/// cols[rows, cols] of one sample, read straight from a zero-padded image
/// instead of a materialized buffer. Row r = (ch, kh, kw), column
/// s = (oh, ow), and
///   cols(r, s) = input[RowOffset(r) + ColOffset(s)],
/// with no bounds test: the padding is already in the image. The engine
/// either packs it (PackIm2ColB, PackIm2ColBFp32: exactly the bytes PackB
/// would pack from Im2Col's columns) or, on the direct route (see
/// GemmPackedIm2Col), loads each panel row from the image in the
/// micro-kernel.
struct Im2ColOperand {
  const float* input;  // zero-padded image [c, h, w]
  int64_t c, h, w;     // channels and padded extents
  int64_t kernel_h, kernel_w, stride;
  int64_t ho, wo;      // output extents

  int64_t rows() const { return c * kernel_h * kernel_w; }
  int64_t cols() const { return ho * wo; }
  int64_t RowOffset(int64_t r) const {
    const int64_t kk = r % (kernel_h * kernel_w);
    return (r / (kernel_h * kernel_w)) * h * w + (kk / kernel_w) * w +
           kk % kernel_w;
  }
  int64_t ColOffset(int64_t s) const {
    return ((s / wo) * w + s % wo) * stride;
  }
};

/// Packs the kc×nc block at (pc, jc) of op(B) = cols (or colsᵀ with
/// trans_b) into the NR-column micro-panels PackB writes, converting each
/// element with `cvt` (identity for fp32, RNE rounding for bf16). Each
/// panel builds a table of its columns' offsets once; a k step then
/// gathers through it. A full panel whose offsets are contiguous (at
/// stride 1, one inside one output row) copies as a run. This gather is
/// the bf16 tier's packer and the reference for the fp32 one
/// (PackIm2ColBFp32), which packs stride-1 colsᵀ panels by transposes.
/// The fp32 forward packs only what the direct route leaves: stride 2,
/// output widths not a multiple of 4, partial last panels.
template <typename T, typename Convert>
void PackIm2ColB(const Im2ColOperand& op, bool trans_b, int64_t pc,
                 int64_t kc, int64_t jc, int64_t nc, T* bp, Convert cvt) {
  const int64_t panels = (nc + kGemmNR - 1) / kGemmNR;
  const int64_t kk = op.kernel_h * op.kernel_w;
  for (int64_t t = 0; t < panels; ++t) {
    const int64_t col0 = jc + t * kGemmNR;
    const int64_t cols = std::min(kGemmNR, nc - t * kGemmNR);
    T* dst = bp + t * kc * kGemmNR;
    int64_t table[kGemmNR] = {};
    if (trans_b) {
      // Panel columns are rows (ch, kh, kw) of cols; k steps walk the
      // output positions (oh, ow), whose offset advances by `stride`
      // along a row and jumps to the next output row at its end.
      for (int64_t j = 0; j < cols; ++j) table[j] = op.RowOffset(col0 + j);
      int64_t ow = pc % op.wo;
      int64_t off = op.ColOffset(pc);
      const int64_t row_jump = op.stride * op.w - (op.wo - 1) * op.stride;
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = op.input + off;
        T* d = dst + p * kGemmNR;
        for (int64_t j = 0; j < cols; ++j) d[j] = cvt(src[table[j]]);
        for (int64_t j = cols; j < kGemmNR; ++j) d[j] = T{};
        if (++ow < op.wo) {
          off += op.stride;
        } else {
          ow = 0;
          off += row_jump;
        }
      }
    } else {
      // Panel columns are output positions; k steps walk the rows
      // (ch, kh, kw) in order. Offsets rise with the column, so a span of
      // NR − 1 means the panel is one contiguous run of the image.
      for (int64_t j = 0; j < cols; ++j) table[j] = op.ColOffset(col0 + j);
      const bool run =
          cols == kGemmNR && table[kGemmNR - 1] - table[0] == kGemmNR - 1;
      const int64_t kh_jump = op.w - (op.kernel_w - 1);
      const int64_t ch_jump = op.h * op.w - (op.kernel_h - 1) * op.w -
                              (op.kernel_w - 1);
      int64_t kw = pc % op.kernel_w;
      int64_t kh = (pc % kk) / op.kernel_w;
      int64_t off = op.RowOffset(pc);
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = op.input + off;
        T* d = dst + p * kGemmNR;
        if (run) {
          src += table[0];
          for (int64_t j = 0; j < kGemmNR; ++j) d[j] = cvt(src[j]);
        } else {
          for (int64_t j = 0; j < cols; ++j) d[j] = cvt(src[table[j]]);
          for (int64_t j = cols; j < kGemmNR; ++j) d[j] = T{};
        }
        if (++kw < op.kernel_w) {
          ++off;
          continue;
        }
        kw = 0;
        if (++kh < op.kernel_h) {
          off += kh_jump;
        } else {
          kh = 0;
          off += ch_jump;
        }
      }
    }
  }
}

/// The fp32 engine's im2col B packer: PackIm2ColB's panels, byte for
/// byte. With trans_b at stride 1 (a weight gradient's colsᵀ) it packs by
/// kV×kV register transposes of contiguous image runs (8×8 on the AVX2
/// ISA, 4×4 on the portable one) instead of per-element gathers.
void PackIm2ColBFp32(const Im2ColOperand& op, bool trans_b, int64_t pc,
                     int64_t kc, int64_t jc, int64_t nc, float* bp);

/// C[n,m] (+)= op(A) · op(B) with B lowered from `b`: op(B) is cols
/// [rows, cols] or, with trans_b, colsᵀ. Bit-identical to GemmPacked over
/// Im2Col's materialized columns. The fp32 engine reads a stride-1 cols
/// whose panels are whole runs of 4 floats (wo % 4 == 0, cols % 16 == 0)
/// straight from the image (the direct route); everything else is packed
/// by PackIm2ColB or PackIm2ColBFp32.
void GemmPackedIm2Col(const float* a, bool trans_a, const Im2ColOperand& b,
                      bool trans_b, float* c, int64_t n, bool accumulate);

/// How many im2col products the calling thread has run on the direct
/// route, with no B pack. They count in PackedEngineRuns() too: the
/// blocked engine runs them. A test hook, like PackedEngineRuns().
int64_t DirectIm2ColRuns();

/// op(A) [n, k] shared by a run of GEMMs — one conv call's per-sample
/// products with its weight — packed once for the whole run, in one
/// format: `precision` is kFp32, or kBf16 with the values rounded to
/// bf16. `panels` holds, for each k block of kGemmKC at depth pc, every
/// MR-row micro-panel of op(A) (see BlockOffset), byte for byte what the
/// engine's PackA writes for those rows at that format. The engine reads
/// its A blocks from it instead of packing them. A thin run
/// (the thin columns of gemm.cc's GEMV routing, or n ≤ 2 rows) packs
/// nothing: `panels` is null, and its GEMVs read `a` or the engine packs
/// its few rows per product. The panels live in the packing thread's
/// scratch and stay valid until that thread packs again at that format.
struct PackedA {
  const float* a = nullptr;
  bool trans_a = false;
  int64_t n = 0, k = 0;
  OpPrecision precision = OpPrecision::kFp32;
  const float* panels = nullptr;

  /// Rows rounded up to whole MR-row panels.
  int64_t padded_n() const { return (n + kGemmMR - 1) / kGemmMR * kGemmMR; }
  /// Where the kc-deep block at (ic, pc) starts; ic is a panel boundary.
  int64_t BlockOffset(int64_t ic, int64_t pc, int64_t kc) const {
    return pc * padded_n() + ic * kc;
  }
};

/// Packs op(A) [n, k] for a run of products with m columns at
/// `precision` (or, for a thin run, records `a` unpacked). kInt8 packs at
/// bf16: int8 has no dynamically packed form, and convs cap at bf16.
PackedA PackAOnce(const float* a, bool trans_a, int64_t n, int64_t k,
                  int64_t m, OpPrecision precision = OpPrecision::kFp32);

/// C[n,m] (+)= op(A) · op(B) over a PackAOnce operand: bit-identical to
/// GemmPacked (or GemmPackedBf16, per a.precision) over a.a.
void GemmPacked(const PackedA& a, const float* b, bool trans_b, float* c,
                int64_t m, bool accumulate);

/// GemmPackedIm2Col over a PackAOnce operand, at its format (bf16:
/// bit-identical to GemmPackedBf16 over Im2Col's materialized columns).
void GemmPackedIm2Col(const PackedA& a, const Im2ColOperand& b, bool trans_b,
                      float* c, bool accumulate);

// Whether this build carries the AVX2+FMA kernel clones: x86 GCC/Clang
// without METALORA_DISABLE_AVX2. The clones are compiled per function
// with METALORA_AVX2_FMA_TARGET, never with a global ISA flag, and only
// run when ActiveGemmIsa() picks them at run time.
//
// Contraction hazard: under the default flags (-ffp-contract=fast), GCC 12
// contracts a plain `y + a * s` into a vfmadd inside a
// METALORA_AVX2_FMA_TARGET function, so an expression that must round its
// product (an fp32 epilogue such as ScaleInto followed by AddInto) must
// stay outside these functions, and a kernel that wants a fused step says
// so with an FMA intrinsic or std::fmaf rather than relying on it.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__)) &&  \
    !defined(METALORA_DISABLE_AVX2)
#define METALORA_GEMM_AVX2_CLONES 1
#define METALORA_AVX2_FMA_TARGET __attribute__((target("avx2,fma")))
#else
#define METALORA_GEMM_AVX2_CLONES 0
#endif

#if defined(__GNUC__) || defined(__clang__)
#define METALORA_ALWAYS_INLINE __attribute__((always_inline))
#else
#define METALORA_ALWAYS_INLINE
#endif

#if defined(__GNUC__) || defined(__clang__)

// 4 fp32 lanes in the GCC/Clang generic vector extensions: SSE on baseline
// x86-64, NEON on AArch64. Loads and stores are memcpys (no alignment).
typedef float V4f __attribute__((vector_size(16)));

inline V4f V4Load(const float* p) {
  V4f v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
inline void V4Store(float* p, V4f v) { __builtin_memcpy(p, &v, sizeof(v)); }
inline V4f V4Splat(float s) { return V4f{s, s, s, s}; }

// Register transposes of kV×kV float blocks: InRegisters turns r0..r(kV-1)
// from rows into steps (afterwards r_v holds element v of every row); Run
// loads row jj from src + rows[jj] and stores step v of a packed panel at
// d + v·kGemmNR. The blocks are named variables, not an array: GCC 12 kept
// an array of them in memory.

// The portable 4×4 block, in the vector extensions' shuffles.
struct Transpose4x4Portable {
  static constexpr int64_t kV = 4;
  METALORA_ALWAYS_INLINE static void InRegisters(V4f& r0, V4f& r1, V4f& r2,
                                                 V4f& r3) {
    const V4f t0 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
    const V4f t1 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
    const V4f t2 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
    const V4f t3 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
    r0 = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
    r1 = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
    r2 = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
    r3 = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
  }
  METALORA_ALWAYS_INLINE static void Run(const float* src,
                                         const int64_t* rows, float* d) {
    V4f r0 = V4Load(src + rows[0]), r1 = V4Load(src + rows[1]);
    V4f r2 = V4Load(src + rows[2]), r3 = V4Load(src + rows[3]);
    InRegisters(r0, r1, r2, r3);
    V4Store(d + 0 * kGemmNR, r0);
    V4Store(d + 1 * kGemmNR, r1);
    V4Store(d + 2 * kGemmNR, r2);
    V4Store(d + 3 * kGemmNR, r3);
  }
};

#endif  // vector extensions

#if METALORA_GEMM_AVX2_CLONES

// 8 fp32 lanes. A V8f never crosses a call by value: outside an AVX
// function that is an ABI change (-Wpsabi), so the 8×8 block takes its
// registers by reference and loads and stores by memcpy. Written in the
// vector extensions, it compiles to AVX unpacks, shuffles and lane
// permutes once inlined into an AVX2 clone.
typedef float V8f __attribute__((vector_size(32)));

struct Transpose8x8Avx2 {
  static constexpr int64_t kV = 8;
  METALORA_ALWAYS_INLINE static void InRegisters(V8f& r0, V8f& r1, V8f& r2,
                                                 V8f& r3, V8f& r4, V8f& r5,
                                                 V8f& r6, V8f& r7) {
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
    r0 = __builtin_shufflevector(u0, u4, 0, 1, 2, 3, 8, 9, 10, 11);
    r1 = __builtin_shufflevector(u1, u5, 0, 1, 2, 3, 8, 9, 10, 11);
    r2 = __builtin_shufflevector(u2, u6, 0, 1, 2, 3, 8, 9, 10, 11);
    r3 = __builtin_shufflevector(u3, u7, 0, 1, 2, 3, 8, 9, 10, 11);
    r4 = __builtin_shufflevector(u0, u4, 4, 5, 6, 7, 12, 13, 14, 15);
    r5 = __builtin_shufflevector(u1, u5, 4, 5, 6, 7, 12, 13, 14, 15);
    r6 = __builtin_shufflevector(u2, u6, 4, 5, 6, 7, 12, 13, 14, 15);
    r7 = __builtin_shufflevector(u3, u7, 4, 5, 6, 7, 12, 13, 14, 15);
  }
  METALORA_ALWAYS_INLINE static void Run(const float* src,
                                         const int64_t* rows, float* d) {
    V8f r0, r1, r2, r3, r4, r5, r6, r7;
    __builtin_memcpy(&r0, src + rows[0], sizeof(V8f));
    __builtin_memcpy(&r1, src + rows[1], sizeof(V8f));
    __builtin_memcpy(&r2, src + rows[2], sizeof(V8f));
    __builtin_memcpy(&r3, src + rows[3], sizeof(V8f));
    __builtin_memcpy(&r4, src + rows[4], sizeof(V8f));
    __builtin_memcpy(&r5, src + rows[5], sizeof(V8f));
    __builtin_memcpy(&r6, src + rows[6], sizeof(V8f));
    __builtin_memcpy(&r7, src + rows[7], sizeof(V8f));
    InRegisters(r0, r1, r2, r3, r4, r5, r6, r7);
    __builtin_memcpy(d + 0 * kGemmNR, &r0, sizeof(V8f));
    __builtin_memcpy(d + 1 * kGemmNR, &r1, sizeof(V8f));
    __builtin_memcpy(d + 2 * kGemmNR, &r2, sizeof(V8f));
    __builtin_memcpy(d + 3 * kGemmNR, &r3, sizeof(V8f));
    __builtin_memcpy(d + 4 * kGemmNR, &r4, sizeof(V8f));
    __builtin_memcpy(d + 5 * kGemmNR, &r5, sizeof(V8f));
    __builtin_memcpy(d + 6 * kGemmNR, &r6, sizeof(V8f));
    __builtin_memcpy(d + 7 * kGemmNR, &r7, sizeof(V8f));
  }
};

#endif  // METALORA_GEMM_AVX2_CLONES

// True when this process runs the fused (AVX2+FMA) kernels. Every engine,
// GEMV path and reference branches on this one decision, once per call.
inline bool FusedMulAdd() { return ActiveGemmIsa() == GemmIsa::kAvx2Fma; }

// One accumulation step of the serial references and the GEMV paths. The
// AVX2+FMA micro-kernels use fused multiply-adds, so on that ISA the
// references fuse too (kFused) or the two sides would round differently
// in the last bit; the portable kernels are plain mul-then-add. This is
// what keeps every reference bit-identical to its packed engine on both
// ISAs. The unfused step must only be compiled outside
// METALORA_AVX2_FMA_TARGET functions: there, the default
// -ffp-contract=fast would fuse it.
template <bool kFused>
inline float MulAddStep(float a, float b, float acc) {
  if constexpr (kFused) {
    return std::fmaf(a, b, acc);
  } else {
    return acc + a * b;
  }
}

}  // namespace gemm_detail
}  // namespace metalora

#endif  // METALORA_TENSOR_GEMM_DETAIL_H_
