// Dense single-precision matrix multiplication entry points.
//
// Thin shape-checked facades over the packed register-blocked GEMM engine
// (tensor/gemm.h). All four layouts — plain, transposed-A, transposed-B,
// and matrix-vector — share the engine's packing + micro-kernel path, and
// all of them run on the calling thread.
#ifndef METALORA_TENSOR_MATMUL_H_
#define METALORA_TENSOR_MATMUL_H_

#include "tensor/tensor.h"

namespace metalora {

/// C[n,m] = A[n,k] · B[k,m].
Tensor Matmul(const Tensor& a, const Tensor& b);

/// C[n,m] = Aᵀ[n,k] · B[k,m] with A stored as [k,n]. Used by backward passes
/// without materializing the transpose.
Tensor MatmulTransA(const Tensor& a, const Tensor& b);

/// C[n,m] = A[n,k] · Bᵀ[k,m] with B stored as [m,k].
Tensor MatmulTransB(const Tensor& a, const Tensor& b);

/// y[n] = A[n,k] · x[k].
Tensor MatVec(const Tensor& a, const Tensor& x);

/// Out-parameter variants writing into a caller-provided [n, m] tensor
/// (workspace-arena fast path; no allocation). MatmulInto accumulates and
/// requires `out` pre-zeroed; MatmulTransAInto and MatmulTransBInto
/// overwrite.
void MatmulInto(const Tensor& a, const Tensor& b, Tensor* out);
void MatmulTransAInto(const Tensor& a, const Tensor& b, Tensor* out);
void MatmulTransBInto(const Tensor& a, const Tensor& b, Tensor* out);

/// Raw kernel: C[n,m] += A[n,k] · B[k,m], all row-major contiguous.
/// Exposed for im2col convolution and benchmarks.
void MatmulAccumulateRaw(const float* a, const float* b, float* c, int64_t n,
                         int64_t k, int64_t m);

}  // namespace metalora

#endif  // METALORA_TENSOR_MATMUL_H_
