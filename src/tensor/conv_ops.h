// 2-D convolution and pooling kernels (NCHW layout).
//
// Convolution uses im2col + matmul; a naive direct kernel is provided as the
// correctness reference for tests. Backward kernels return gradients w.r.t.
// input, weight and bias.
#ifndef METALORA_TENSOR_CONV_OPS_H_
#define METALORA_TENSOR_CONV_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/autocast.h"
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
/// Padding positions contribute zeros.
void Im2Col(const float* input, int64_t channels, int64_t h, int64_t w,
            const ConvGeom& g, float* columns);

/// Folds columns [C*Kh*Kw, Ho*Wo] back into [C, H, W], accumulating
/// overlapping contributions. `input_grad` must be pre-zeroed.
void Col2Im(const float* columns, int64_t channels, int64_t h, int64_t w,
            const ConvGeom& g, float* input_grad);

/// True for a 1×1, stride-1, unpadded conv. Its im2col columns are the
/// input plane itself, so the conv kernels skip Im2Col/Col2Im and their
/// scratch buffers and run the GEMMs on the planes directly (bit-identical
/// to the lowered route).
bool ConvIsPointwise(const ConvGeom& g);

/// Forward convolution.
///   input  [N, C, H, W]
///   weight [O, C, Kh, Kw]
///   bias   [O] or undefined for no bias
/// Returns [N, O, Ho, Wo].
Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const ConvGeom& g);

/// Same, accumulating into a caller-provided, pre-zeroed [N, O, Ho, Wo]
/// tensor (workspace-arena fast path; no output allocation). `precision`
/// selects the im2col GEMM tier: kBf16 runs the bf16-storage engine
/// (kInt8 is treated as kBf16 — conv has no quantized-shadow form); the
/// bias epilogue is fp32 in every tier.
void Conv2dForwardInto(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, const ConvGeom& g, Tensor* out,
                       OpPrecision precision = OpPrecision::kFp32);

/// Gradients of Conv2dForward. `grad_bias` is filled only if `has_bias`.
void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_output, const ConvGeom& g,
                    Tensor* grad_input, Tensor* grad_weight, Tensor* grad_bias,
                    bool has_bias);

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
