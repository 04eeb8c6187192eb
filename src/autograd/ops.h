// Differentiable operations over Variables.
//
// Every function here runs a forward kernel and, when gradient recording is
// active, attaches a backward closure. Gradient correctness of each op is
// covered by finite-difference property tests (tests/autograd_gradcheck_test).
#ifndef METALORA_AUTOGRAD_OPS_H_
#define METALORA_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"
#include "tensor/conv_ops.h"

namespace metalora {
namespace autograd {

// --------------------------------------------------------------------------
// Elementwise arithmetic (ops_basic.cc).
// --------------------------------------------------------------------------

/// c = a + b (same shape).
Variable Add(const Variable& a, const Variable& b);
/// c = a - b.
Variable Sub(const Variable& a, const Variable& b);
/// c = a ⊙ b (Hadamard). Gradient flows to both inputs.
Variable Mul(const Variable& a, const Variable& b);
/// c = a * s.
Variable Scale(const Variable& a, float s);
/// c = a + s.
Variable AddScalar(const Variable& a, float s);
/// c = -a.
Variable Neg(const Variable& a);

/// out[i,j] = a[i,j] + bias[j]; a is [N,C], bias is [C].
Variable AddRowBroadcast(const Variable& a, const Variable& bias);

/// out[i,j] = a[i,j] * row[j]; a is [N,C], row is [C]. Gradient w.r.t. row is
/// Σ_i g[i,j]·a[i,j]. This is the pooled MetaLoRA-CP seed application.
Variable MulRowBroadcast(const Variable& a, const Variable& row);

/// out[n,c,h,w] = a[n,c,h,w] * s[n,c]; per-sample channel scaling — the
/// faithful per-input MetaLoRA-CP application for conv features. Adapters
/// apply it inside AdaptedConv2d; this op form is the reference the
/// adapter tests replay.
Variable ScaleChannels(const Variable& a, const Variable& s);

/// Repeats each row of a [N, ...] tensor `k` times consecutively:
/// out[i*k + j] = a[i]. Backward sums the k replicas. Used to broadcast a
/// per-sample MetaLoRA seed over the per-token rows of a flattened
/// [N*S, D] activation (MLP-Mixer layers).
Variable RepeatRowsInterleaved(const Variable& a, int64_t k);

// Activations.
Variable Relu(const Variable& a);
/// tanh-approximation GELU (as in BERT/Mixer reference code).
Variable Gelu(const Variable& a);
Variable Tanh(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Square(const Variable& a);
Variable Exp(const Variable& a);

/// Inverted dropout; identity when !training or p == 0.
Variable Dropout(const Variable& a, float p, bool training, Rng& rng);

// Reductions.
/// Scalar sum of all elements.
Variable SumAll(const Variable& a);
/// Scalar mean of all elements.
Variable MeanAll(const Variable& a);

// --------------------------------------------------------------------------
// Linear algebra (ops_matmul.cc).
// --------------------------------------------------------------------------

/// C[n,m] = A[n,k] · B[k,m].
Variable Matmul(const Variable& a, const Variable& b);

/// Fused affine map: y[n,o] = x[n,i] · Wᵀ[i,o] + b[o]. W is stored [O, I]
/// (PyTorch convention); pass an undefined bias Variable for no bias.
Variable Linear(const Variable& x, const Variable& weight,
                const Variable& bias);

/// C[n,p,s] = A[n,p,q] · B[n,q,s] (batched matmul, shared batch dim).
Variable BatchedMatmul(const Variable& a, const Variable& b);

/// Per-sample pointwise (1×1) convolution with per-sample weights:
///   y[n,o,h,w] = Σ_q w[n,o,q] · x[n,q,h,w]
/// This is the conv-MetaLoRA integration step where the generated core makes
/// the recovery weights input-dependent. Adapters apply it inside
/// AdaptedConv2d; this op form is the reference the adapter tests replay.
Variable PerSamplePointwiseConv(const Variable& x, const Variable& w);

// --------------------------------------------------------------------------
// Shape manipulation (ops_shape.cc).
// --------------------------------------------------------------------------

/// Reshape preserving numel (shares the value buffer).
Variable Reshape(const Variable& a, Shape shape);
/// Flattens [N, ...] to [N, rest].
Variable Flatten2D(const Variable& a);
/// General dimension permutation.
Variable Permute(const Variable& a, const std::vector<int>& perm);
/// Concatenation along dim 0.
Variable ConcatRows(const std::vector<Variable>& parts);

// --------------------------------------------------------------------------
// Convolution & pooling (ops_conv.cc).
// --------------------------------------------------------------------------

/// 2-D convolution, NCHW; weight [O, C, Kh, Kw]; bias [O] or undefined.
Variable Conv2d(const Variable& x, const Variable& weight,
                const Variable& bias, const ConvGeom& geom);

/// The conv lowering of an adapted conv (paper Eq. 5–6, Fig. 3) as one op:
///   y = conv(x, W) + scale · U_n · [G] · [diag(c_n)] · conv(x, D)
/// for weight W [O, C, Kh, Kw], bias [O] or undefined, down D
/// [R', C, Kh, Kw], seed c [N, R'] or undefined, core G [R', R'] or
/// undefined, and up U [O, R'] or, per sample (TR's generated M_n),
/// [N, O, R']. W and D run as one row-stacked conv (one GEMM per sample
/// over O + R' rows), and the tail runs on plain tensors with the kernels
/// and float order of ScaleChannels, 1×1 Conv2d or PerSamplePointwiseConv,
/// Scale and Add, so y and every parameter gradient equal that op
/// sequence's byte for byte. x's gradient is one GEMM over [W; D]ᵀ, so its
/// rounding differs from summing two convs' input gradients.
Variable AdaptedConv2d(const Variable& x, const Variable& weight,
                       const Variable& bias, const Variable& down,
                       const Variable& seed, const Variable& core,
                       const Variable& up, float scale, const ConvGeom& geom);

Variable MaxPool2d(const Variable& x, const ConvGeom& geom);
Variable AvgPool2d(const Variable& x, const ConvGeom& geom);
/// [N,C,H,W] -> [N,C].
Variable GlobalAvgPool(const Variable& x);

// --------------------------------------------------------------------------
// Normalization (ops_norm.cc).
// --------------------------------------------------------------------------

/// Batch normalization over (N, H, W) per channel. In training mode uses
/// batch statistics and updates running stats in place; in eval mode uses the
/// provided running stats. gamma/beta are [C].
Variable BatchNorm2d(const Variable& x, const Variable& gamma,
                     const Variable& beta, Tensor& running_mean,
                     Tensor& running_var, bool training, float momentum,
                     float eps);

/// Layer normalization over the last dimension; gamma/beta are [C].
Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps);

// --------------------------------------------------------------------------
// Losses (ops_loss.cc).
// --------------------------------------------------------------------------

/// Row-wise softmax of logits [N, C].
Variable Softmax(const Variable& logits);

/// Softmax over the last dimension of a tensor of any rank (attention
/// weights): every slice along the trailing axis sums to 1.
Variable SoftmaxLastDim(const Variable& logits);

/// Mean cross-entropy with integer labels; logits [N, C]. Numerically stable
/// (log-sum-exp); returns a scalar.
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int64_t>& labels);

/// Mean squared error between `pred` and constant `target`; scalar.
Variable MseLoss(const Variable& pred, const Tensor& target);

}  // namespace autograd
}  // namespace metalora

#endif  // METALORA_AUTOGRAD_OPS_H_
