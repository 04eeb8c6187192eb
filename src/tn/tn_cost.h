// Parameter and FLOP accounting for the adaptation formats compared in the
// paper (Figs. 3–4, parameter-efficiency discussion in §I).
//
// All counts are exact closed forms; bench/param_efficiency and
// bench/fig3_conv_lora print them next to measured values. Adapters derive
// their own counts from their factors (core::TnAdapter from its chain), so
// these closed forms are test oracles: core_tn_adapter_test, core_inject_test
// and bench/param_efficiency pin the derived counts against them.
#ifndef METALORA_TN_TN_COST_H_
#define METALORA_TN_TN_COST_H_

#include <cstdint>
#include <vector>

namespace metalora {
namespace tn {

/// Trainable parameters of a dense linear layer W ∈ R^{I×O} (no bias).
int64_t DenseLinearParams(int64_t in, int64_t out);

/// Standard LoRA on a linear layer: A[I,R] + B[R,O].
int64_t LoraLinearParams(int64_t in, int64_t out, int64_t rank);

/// MetaLoRA (CP) on a linear layer: LoRA factors plus nothing extra stored in
/// the layer (the seed c comes from the mapping net).
int64_t MetaLoraCpLinearParams(int64_t in, int64_t out, int64_t rank);

/// MetaLoRA (TR) on a linear layer: A[R,I,R] + B[R,O,R].
int64_t MetaLoraTrLinearParams(int64_t in, int64_t out, int64_t rank);

/// Dense convolution W ∈ R^{K×K×I×O}.
int64_t DenseConvParams(int64_t kernel, int64_t in_ch, int64_t out_ch);

/// Conv-LoRA (Eq. 5): A ∈ R^{K×K×I×R} plus B ∈ R^{R×O}.
int64_t ConvLoraParams(int64_t kernel, int64_t in_ch, int64_t out_ch,
                       int64_t rank);

/// MetaLoRA (TR) for conv (§III.D): A[R,K·K·I,R]-style cores; we count the
/// faithful parameterization A ∈ R^{R×(K·K·I)×R}, B ∈ R^{R×O×R}.
int64_t MetaLoraTrConvParams(int64_t kernel, int64_t in_ch, int64_t out_ch,
                             int64_t rank);

// --- LoTR (cross-layer shared factors, arXiv:2402.01376) -------------------
//
// All layers of one (in, out[, kernel]) geometry group share the large
// down/up factors; each layer adds only a thin R×R core. The injected
// trainable count of a group of L layers is therefore
//   LotrShared*Params(...) + L · LotrCoreParams(rank),
// which undercuts L · LoRA layers for every L ≥ 1 at equal rank.

/// Shared factors of one linear geometry group: A[R,I] + B[O,R].
int64_t LotrSharedLinearParams(int64_t in, int64_t out, int64_t rank);

/// Shared factors of one conv geometry group: A[R,I,K,K] + B[O,R].
int64_t LotrSharedConvParams(int64_t kernel, int64_t in_ch, int64_t out_ch,
                             int64_t rank);

/// Per-layer core G[R,R] (same for linear and conv groups).
int64_t LotrCoreParams(int64_t rank);

// --- Tensor-train adapters (arXiv:2506.16456 / LoRTA-style) ----------------

/// Largest divisor d1 of `d` with d1 ≤ √d: the mode split d = d1 · d2 used
/// by the TT-matrix adapters (d2 = d / d1; primes degrade to 1 × d).
int64_t TtSplitDim(int64_t d);

/// TT-matrix adapter on a linear layer with I = i1·i2, O = o1·o2 and uniform
/// bond rank R: cores [i1,R] + [R,i2,R] + [R,o1,R] + [R,o2].
int64_t TtLinearParams(int64_t in, int64_t out, int64_t rank);

/// TT adapter on a conv layer: the Conv-LoRA down kernel [R,I,K,K] is
/// TT-factorized into a channel core [R,I,R] and a spatial core [R,K·K],
/// plus the 1×1 output core [O,R].
int64_t TtConvParams(int64_t kernel, int64_t in_ch, int64_t out_ch,
                     int64_t rank);

/// Multiply-add count of a dense conv layer on an H×W input (same padding).
int64_t ConvFlops(int64_t kernel, int64_t in_ch, int64_t out_ch, int64_t h,
                  int64_t w);

/// Multiply-add count of Conv-LoRA's two-stage path on the same input.
int64_t ConvLoraFlops(int64_t kernel, int64_t in_ch, int64_t out_ch,
                      int64_t rank, int64_t h, int64_t w);

/// Multiply-adds to materialize the CP matrix update ΔW = A·diag(c)·B.
int64_t CpMatrixFlops(int64_t in, int64_t out, int64_t rank);

/// Multiply-adds to materialize the TR matrix update (Eq. 7) using the
/// (A ×_{r1} B) ×_{r2,r0} C contraction order.
int64_t TrMatrixFlops(int64_t in, int64_t out, int64_t rank);

/// Tucker parameters for a matrix: core R×R plus two factors.
int64_t TuckerMatrixParams(int64_t in, int64_t out, int64_t rank);

/// TR parameters of an N-way tensor with uniform bond rank.
int64_t TrParams(const std::vector<int64_t>& dims, int64_t rank);

/// CP parameters of an N-way tensor (factors + lambda).
int64_t CpParams(const std::vector<int64_t>& dims, int64_t rank);

}  // namespace tn
}  // namespace metalora

#endif  // METALORA_TN_TN_COST_H_
