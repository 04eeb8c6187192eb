// 2-D convolution and pooling kernels (NCHW layout).
//
// Convolution lowers to the packed GEMM: each sample's input is padded once
// and the GEMM reads its im2col operand from the padded image, so no
// column matrix is materialized. The fp32 forward of a stride-1 conv whose
// output rows split into runs of 4 reads the image inside the micro-kernel
// and packs none of it; other convs pack their im2col panels straight
// from the image. Im2Col/Col2Im and a naive direct kernel
// are kept as correctness references for tests. The conv kernels take a
// row-stack of weights sharing one input, so an adapted conv's base weight
// and down-projection run as one GEMM; a plain conv is the one-weight
// stack. Backward kernels write the gradients w.r.t. input, weights and
// bias that the caller asks for into zeroed tensors the caller provides.
#ifndef METALORA_TENSOR_CONV_OPS_H_
#define METALORA_TENSOR_CONV_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace metalora {

/// Geometry of a conv/pool window.
struct ConvGeom {
  int64_t kernel_h = 3;
  int64_t kernel_w = 3;
  int64_t stride = 1;
  int64_t padding = 0;

  /// The 1×1, stride-1, unpadded geometry of a channel-mixing conv.
  static ConvGeom Pointwise() { return ConvGeom{1, 1, 1, 0}; }

  /// Output spatial extent for input extent `in`.
  int64_t OutExtent(int64_t in, int64_t kernel) const {
    return (in + 2 * padding - kernel) / stride + 1;
  }
};

/// Unfolds input [C, H, W] into columns [C*Kh*Kw, Ho*Wo].
/// Padding positions contribute zeros. A serial test oracle: the conv
/// kernels lower their input while the GEMM packs it and never call this.
void Im2Col(const float* input, int64_t channels, int64_t h, int64_t w,
            const ConvGeom& g, float* columns);

/// Folds columns [C*Kh*Kw, Ho*Wo] back into [C, H, W], accumulating
/// overlapping contributions in (kh, kw) order. `input_grad` must be
/// pre-zeroed. A serial test oracle, like Im2Col.
void Col2Im(const float* columns, int64_t channels, int64_t h, int64_t w,
            const ConvGeom& g, float* input_grad);

/// True for a 1×1, stride-1, unpadded conv. Its column gradient is the
/// input-gradient plane itself, so Conv2dBackward's GEMM writes the plane
/// directly with no fold (bit-identical to the lowered route).
bool ConvIsPointwise(const ConvGeom& g);

/// Forward convolution of one input by a row-stack of weights
/// W_0 [O_0, C, Kh, Kw], W_1 [O_1, C, Kh, Kw], ...: the weights are packed
/// once per call as one [ΣO_i, C·Kh·Kw] matrix, and each sample runs one
/// lowered GEMM over all ΣO_i rows, so the im2col operand is lowered once
/// however many weights share it. At stride 1, when Wo % 4 == 0
/// and Ho·Wo % 16 == 0, the micro-kernel reads it straight from the padded
/// image through row and column offset tables built once per call (the
/// direct route); otherwise its panels are packed from the image per
/// sample. Both routes run the same chains. `outs[i]` [N, O_i, Ho, Wo]
/// receives W_i's rows; every element is written (no pre-zeroing). `bias`
/// [O_0], or undefined for none, belongs to the first weight. Each row
/// keeps the accumulation chain it has in a conv by its own weight alone,
/// so the outputs are byte-identical to separate calls. A pointwise
/// conv over at most 32 input channels (U·h over R channels, TR's R×R
/// core) skips the engine and runs each output as one vector FMA chain
/// from +0 over the input rows (conv_thin.h), the engine's chain byte for
/// byte.
void Conv2dForwardInto(const Tensor& input,
                       std::span<const Tensor* const> weights,
                       const Tensor& bias, const ConvGeom& g,
                       std::span<Tensor* const> outs);

/// The one-weight stack: a plain conv into a [N, O, Ho, Wo] `out`.
void Conv2dForwardInto(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, const ConvGeom& g, Tensor* out);

/// Same, allocating the output. Returns [N, O, Ho, Wo].
Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const ConvGeom& g);

/// Gradients of a row-stacked Conv2dForwardInto, given each weight's output
/// gradient `grad_outputs[i]` [N, O_i, Ho, Wo]. Every gradient is written
/// into a zeroed tensor the caller provides, shaped like its operand; a
/// null one is skipped with its GEMMs.
///   - grad_input: one GEMM per sample over the stack,
///     [W_0; W_1; ...]ᵀ · [g_0; g_1; ...] with k = ΣO_i, and one fold.
///   - grad_weights[i]: one product per sample over the stacked output
///     gradients of the rows from the first to the last weight that wants
///     a gradient; each row's chain is the one-weight chain, byte for byte.
///     A rank-thin product skips the engine (conv_thin.h): at most 8 rows
///     (D's gradient) run 8-channel FMA chains over a channels-last copy
///     of the sample, at most 8 columns C·Kh·Kw (a rank-R pointwise U's
///     gradient) run 8-row chains fed by register transposes of the output
///     gradient. Otherwise the engine packs its colsᵀ panels by register
///     transposes at stride 1. Uᵀ·g's R rows in grad_input run as GEMV
///     chains. None of this changes a byte.
///   - grad_bias [O_0]: the first weight's bias.
void Conv2dBackward(const Tensor& input,
                    std::span<const Tensor* const> weights,
                    std::span<const Tensor* const> grad_outputs,
                    const ConvGeom& g, Tensor* grad_input,
                    std::span<Tensor* const> grad_weights, Tensor* grad_bias);

/// The one-weight stack.
void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_output, const ConvGeom& g,
                    Tensor* grad_input, Tensor* grad_weight,
                    Tensor* grad_bias);

/// Per-sample pointwise (1×1) conv with per-sample weights:
///   out[n] [O, S] += w[n] [O, Q] · x[n] [Q, S]
/// for x [N, Q, H, W] and w [N, O, Q]. `out` [N, O, H, W] must be zeroed.
void PerSamplePointwiseConvInto(const Tensor& x, const Tensor& w, Tensor* out);

/// Its gradients for output gradient `g` [N, O, H, W], accumulated into
/// zeroed caller-provided tensors; a null one is skipped.
void PerSamplePointwiseConvBackward(const Tensor& x, const Tensor& w,
                                    const Tensor& g, Tensor* grad_x,
                                    Tensor* grad_w);

/// Per-sample channel scaling, out[n, c, h, w] = a[n, c, h, w] · s[n, c]:
/// the MetaLoRA-CP seed applied to conv features. `out` may be `a`.
void ScaleChannelsInto(const Tensor& a, const Tensor& s, Tensor* out);

/// Its gradients for output gradient `g`: grad_a = g · s and
/// grad_s[n, c] = Σ_hw g · a, each written whole; a null one is skipped.
void ScaleChannelsBackward(const Tensor& g, const Tensor& a, const Tensor& s,
                           Tensor* grad_a, Tensor* grad_s);

/// Naive direct convolution; reference implementation for tests.
Tensor Conv2dDirect(const Tensor& input, const Tensor& weight,
                    const Tensor& bias, const ConvGeom& g);

/// Max pooling. Returns [N, C, Ho, Wo]; `argmax` (same numel as output)
/// records the flat input offset of each selected element for backward.
Tensor MaxPool2d(const Tensor& input, const ConvGeom& g,
                 std::vector<int64_t>* argmax);

/// Same, writing into a caller-provided [N, C, Ho, Wo] tensor.
void MaxPool2dInto(const Tensor& input, const ConvGeom& g,
                   std::vector<int64_t>* argmax, Tensor* out);

/// Scatters grad_output back through the recorded argmax indices.
Tensor MaxPool2dBackward(const Tensor& grad_output, const Shape& input_shape,
                         const std::vector<int64_t>& argmax);

/// Average pooling.
Tensor AvgPool2d(const Tensor& input, const ConvGeom& g);

/// Same, writing into a caller-provided [N, C, Ho, Wo] tensor.
void AvgPool2dInto(const Tensor& input, const ConvGeom& g, Tensor* out);

/// Backward of average pooling.
Tensor AvgPool2dBackward(const Tensor& grad_output, const Shape& input_shape,
                         const ConvGeom& g);

/// Global average pooling: [N, C, H, W] -> [N, C].
Tensor GlobalAvgPool(const Tensor& input);

/// Same, writing into a caller-provided [N, C] tensor.
void GlobalAvgPoolInto(const Tensor& input, Tensor* out);

/// Backward of global average pooling.
Tensor GlobalAvgPoolBackward(const Tensor& grad_output,
                             const Shape& input_shape);

}  // namespace metalora

#endif  // METALORA_TENSOR_CONV_OPS_H_
