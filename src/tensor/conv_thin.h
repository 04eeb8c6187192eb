// The rank-thin conv products, at vector FMA rate with no pack. Internal
// to the conv lowering (conv_ops.cc) — include only from src/tensor.
//
// A conv MetaLoRA chain is a K×K conv D down to R channels, a per-sample
// seed over those channels and a 1×1 conv U back up. Its training step
// makes three products that the packed 6×16 engine runs mostly on padding:
// D's weight gradient (R rows), d = U·h (depth R) and U's weight gradient
// (R columns). Each kernel here runs one of them as vector FMA chains
// straight from the operands, and keeps every output element's
// accumulation chain exactly as the engine runs it — same operands, same
// order, same starting value — so a route never changes a byte. Each
// kernel has an AVX2+FMA clone (fused steps, like the engine's AVX2
// micro-kernel) and a portable twin (mul-then-add, like its portable one),
// picked by gemm_detail::FusedMulAdd(). The caller asks first whether a
// route takes a product (its measured fp32 limits, the geometries it
// covers) and runs the engine otherwise.
#ifndef METALORA_TENSOR_CONV_THIN_H_
#define METALORA_TENSOR_CONV_THIN_H_

#include <cstdint>

#include "tensor/conv_ops.h"
#include "tensor/gemm_detail.h"

namespace metalora {
namespace conv_thin {

/// The route of a conv weight gradient dw [n, m] += gout [n, Ho·Wo] ·
/// colsᵀ, m = C·Kh·Kw: few rows for n ≤ 8 (D's gradient, n = R) and kernel
/// widths up to 5, few columns for m ≤ 8 (U's, a 1×1 conv over R
/// channels), else the engine. Where both take it, few rows for n ≤ 4.
enum class WeightGradientRoute { kEngine, kFewRows, kFewColumns };
WeightGradientRoute PickWeightGradientRoute(int64_t n, int64_t m,
                                            const ConvGeom& g);

/// The few-rows route for one unpadded sample `in` [c, h, w]: 8-channel
/// chains (4 on the portable ISA) over a channels-last, zero-padded copy
/// of the sample. Each dw element is one chain over (oh, ow) in order,
/// starting from its value in dw, as the engine accumulates it.
void WeightGradientFewRows(const float* gout, int64_t n, const float* in,
                           int64_t c, int64_t h, int64_t w, const ConvGeom& g,
                           float* dw);

/// The few-columns route over a lowered sample: 8-row chains (4 on the
/// portable ISA) fed by register transposes of gout, with the same chains.
void WeightGradientFewColumns(const float* gout, int64_t n,
                              const gemm_detail::Im2ColOperand& cols,
                              float* dw);

/// Whether PointwiseForward takes a pointwise conv over c input channels:
/// c ≤ the route's depth limit.
bool PointwiseForwardTakes(int64_t c);

/// The fp32 forward of a shallow pointwise conv (U·h over R channels,
/// TR's R×R core): out [n, s] = w [n, c] · in [c, s], where
/// PointwiseForwardTakes(c). Each output is one chain over r = 0..c-1
/// from +0, as the engine runs it with accumulate off.
void PointwiseForward(const float* w, int64_t n, const float* in, int64_t c,
                      int64_t s, float* out);

/// Products the calling thread has run through these routes: a test hook,
/// as PackedEngineRuns() is for the engine.
int64_t RouteRuns();

}  // namespace conv_thin
}  // namespace metalora

#endif  // METALORA_TENSOR_CONV_THIN_H_
