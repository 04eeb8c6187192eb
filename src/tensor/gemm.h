// Packed, register-blocked single-precision GEMM engine.
//
// One engine serves every dense matmul layout in the library:
//
//   C[n,m] (+)= op(A) · op(B)
//
// where op(A) is n×k — stored row-major [n,k], or, with trans_a, stored
// [k,n] — and op(B) is k×m — stored [k,m], or, with trans_b, [m,k].
// Transposition is absorbed at pack time: panels of A and B are copied
// into contiguous cache-blocked buffers in the exact order the
// micro-kernel consumes them, so the inner loop never sees a stride and
// all four layouts (Matmul, MatmulTransA, MatmulTransB, MatVec) share
// one code path.
//
// The micro-kernel is a kGemmMR × kGemmNR register accumulator tile
// driven over a kGemmKC-deep panel (BLIS/oneDNN design). A portable
// version (GCC/Clang vector extensions, else scalar) is always built. On
// x86 an AVX2+FMA clone of every kernel is compiled too, per function
// with a target attribute, so the binary needs no ISA flag and stays
// portable. ActiveGemmIsa() picks one
// ISA per process from cpuid; each GEMM call reads it once and runs that
// ISA's kernels for the whole call. Building with -DMETALORA_DISABLE_AVX2
// leaves the clones out, so CI can exercise the portable kernels on any
// runner; when such a build also passes -mfma, pair it with
// -ffp-contract=off so the compiler cannot fuse the portable mul-then-add.
//
// One engine, one format: A and B panels hold fp32 values, and every
// product (dense, im2col, shared packed A) walks the same fixed cache
// blocks, kGemmMC/KC/NC.
//
// Determinism contract: for every output element the accumulation runs
// p = 0..k-1 in order into a single accumulator (k-panels store and
// reload the partial sum, which is exact), so GemmPacked is bit-identical
// to GemmReference within one process (one ISA) — there is no
// reassociation and no split partial sums. The AVX2+FMA ISA fuses each
// step and the portable one does not, so fp32 bits differ between ISAs.
// Tail tiles compute into a padded scratch tile with zero-padded operands
// and copy the valid region out, which preserves the same per-element
// operation sequence.
#ifndef METALORA_TENSOR_GEMM_H_
#define METALORA_TENSOR_GEMM_H_

#include <cstdint>

namespace metalora {

/// The instruction set the GEMM kernels run on.
enum class GemmIsa {
  kPortable,  // vector-extension / scalar kernels, mul-then-add
  kAvx2Fma,   // AVX2+FMA clones, fused multiply-add
};

/// The ISA this process runs: kAvx2Fma when the build carries the clones
/// and cpuid reports avx2 and fma, else kPortable. Decided once, on first
/// use; every packed engine, GEMV path and reference follows it.
GemmIsa ActiveGemmIsa();

/// "avx2+fma" or "portable".
const char* GemmIsaName(GemmIsa isa);

/// Micro-tile rows (register accumulator height).
inline constexpr int64_t kGemmMR = 6;
/// Micro-tile columns (register accumulator width; two 8-lane vectors).
inline constexpr int64_t kGemmNR = 16;
/// Row-panel cache block: rows of C packed and processed per task.
inline constexpr int64_t kGemmMC = 96;
/// Depth cache block: k-extent of one packed A/B panel (L1-resident).
inline constexpr int64_t kGemmKC = 256;
/// Column cache block: m-extent of one packed B panel.
inline constexpr int64_t kGemmNC = 1024;

/// C[n,m] (+)= op(A) · op(B) through the packed engine. With
/// `accumulate` the product is added to the existing contents of C;
/// without it C is overwritten (C may be uninitialized). Runs on the
/// calling thread, as does every GEMM, GEMV and conv kernel in this layer.
/// One-column (m == 1) and one-row (n == 1) products run as GEMVs with
/// the same per-element chains.
void GemmPacked(const float* a, bool trans_a, const float* b, bool trans_b,
                float* c, int64_t n, int64_t k, int64_t m, bool accumulate);

/// How many GEMMs the calling thread has run through the blocked
/// (packed-panel) engine. The GEMV paths do not count.
/// Lets tests tell which path a kernel took.
int64_t PackedEngineRuns();

/// Retained naive reference: a serial i-j-p triple loop with one scalar
/// accumulator per output element. The correctness oracle for tests and
/// the baseline tier of micro_kernels' BM_Gemm; GemmPacked must agree
/// with it bit-for-bit in the same process.
void GemmReference(const float* a, bool trans_a, const float* b, bool trans_b,
                   float* c, int64_t n, int64_t k, int64_t m, bool accumulate);

}  // namespace metalora

#endif  // METALORA_TENSOR_GEMM_H_
