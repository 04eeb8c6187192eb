#include "tensor/conv_ops.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "tensor/conv_thin.h"
#include "tensor/gemm.h"
#include "tensor/gemm_detail.h"
#include "tensor/matmul.h"
#include "tensor/tensor_ops.h"

namespace metalora {

// The serial oracles of the lowering: plain loops with a bounds test on
// every element. No kernel calls them; tests check the conv kernels
// against Im2Col → GEMM → Col2Im built from them.
void Im2Col(const float* input, int64_t channels, int64_t h, int64_t w,
            const ConvGeom& g, float* columns) {
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const int64_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        for (int64_t oh = 0; oh < ho; ++oh) {
          for (int64_t ow = 0; ow < wo; ++ow) {
            const int64_t ih = oh * g.stride - g.padding + kh;
            const int64_t iw = ow * g.stride - g.padding + kw;
            const bool in = ih >= 0 && ih < h && iw >= 0 && iw < w;
            columns[row * ho * wo + oh * wo + ow] =
                in ? input[(c * h + ih) * w + iw] : 0.0f;
          }
        }
      }
    }
  }
}

void Col2Im(const float* columns, int64_t channels, int64_t h, int64_t w,
            const ConvGeom& g, float* input_grad) {
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const int64_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        for (int64_t oh = 0; oh < ho; ++oh) {
          for (int64_t ow = 0; ow < wo; ++ow) {
            const int64_t ih = oh * g.stride - g.padding + kh;
            const int64_t iw = ow * g.stride - g.padding + kw;
            if (ih >= 0 && ih < h && iw >= 0 && iw < w) {
              input_grad[(c * h + ih) * w + iw] +=
                  columns[row * ho * wo + oh * wo + ow];
            }
          }
        }
      }
    }
  }
}

bool ConvIsPointwise(const ConvGeom& g) {
  return g.kernel_h == 1 && g.kernel_w == 1 && g.stride == 1 &&
         g.padding == 0;
}

namespace {

using gemm_detail::Im2ColOperand;

// Per-thread conv scratch, grow-once like the GEMM's pack buffers. The
// padded buffer holds the zero-padded image of the sample being lowered
// and, in the input-gradient pass, the padded plane its column gradient
// folds into; the column-gradient buffer holds that GEMM's output.
thread_local gemm_detail::AlignedBuffer<float> tls_padded;
thread_local gemm_detail::AlignedBuffer<float> tls_col_grad;

// The im2col operand of one sample [c, h, w]: the image itself when the
// conv has no padding, else a zero-padded copy in tls_padded.
Im2ColOperand LowerSample(const float* in_n, int64_t c, int64_t h, int64_t w,
                          const ConvGeom& g) {
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  const int64_t p = g.padding;
  if (p == 0) return {in_n, c, h, w, g.kernel_h, g.kernel_w, g.stride, ho, wo};
  const int64_t hp = h + 2 * p, wp = w + 2 * p;
  tls_padded.Reserve(c * hp * wp);
  float* padded = tls_padded.data();
  for (int64_t ch = 0; ch < c; ++ch) {
    float* plane = padded + ch * hp * wp;
    const float* src = in_n + ch * h * w;
    std::fill(plane, plane + p * wp, 0.0f);
    for (int64_t ih = 0; ih < h; ++ih) {
      float* row = plane + (ih + p) * wp;
      std::fill(row, row + p, 0.0f);
      std::copy(src + ih * w, src + ih * w + w, row + p);
      std::fill(row + p + w, row + wp, 0.0f);
    }
    std::fill(plane + (h + p) * wp, plane + hp * wp, 0.0f);
  }
  return {padded, c, hp, wp, g.kernel_h, g.kernel_w, g.stride, ho, wo};
}

// Adds col_grad [c·Kh·Kw, Ho·Wo] into the input gradient gin_n [c, h, w]
// in Col2Im's (kh, kw, oh, ow) order, so every element sums its
// contributions in the same order as the oracle: bit-identical. The sums
// land in a zero-padded plane (no bounds test; the border is dropped),
// or straight in gin_n when the conv has no padding. gin_n must be
// zeroed.
void FoldColumns(const float* col_grad, int64_t c, int64_t h, int64_t w,
                 const ConvGeom& g, float* gin_n) {
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  const int64_t p = g.padding, s = g.stride;
  const int64_t hp = h + 2 * p, wp = w + 2 * p;
  float* plane = gin_n;
  if (p > 0) {
    tls_padded.Reserve(c * hp * wp);
    plane = tls_padded.data();
    std::fill(plane, plane + c * hp * wp, 0.0f);
  }
  const float* src = col_grad;
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        for (int64_t oh = 0; oh < ho; ++oh, src += wo) {
          float* dst = plane + (ch * hp + oh * s + kh) * wp + kw;
          if (s == 1) {
            for (int64_t ow = 0; ow < wo; ++ow) dst[ow] += src[ow];
          } else {
            for (int64_t ow = 0; ow < wo; ++ow) dst[ow * s] += src[ow];
          }
        }
      }
    }
  }
  if (p == 0) return;
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t ih = 0; ih < h; ++ih) {
      const float* row = plane + (ch * hp + ih + p) * wp + p;
      std::copy(row, row + w, gin_n + (ch * h + ih) * w);
    }
  }
}

}  // namespace

namespace {

// Scratch of the row-stacked kernels, grow-once like the buffers above:
// the stacked weight matrix, one sample's stacked GEMM output (forward) or
// output gradient (backward), and the stacked weight gradients.
thread_local gemm_detail::AlignedBuffer<float> tls_stack_w;
thread_local gemm_detail::AlignedBuffer<float> tls_stack_rows;
thread_local gemm_detail::AlignedBuffer<float> tls_stack_gw;

// The weights as one row-major [rows, col_rows] matrix: a lone weight in
// place, a stack copied row block after row block into tls_stack_w.
const float* StackWeights(std::span<const Tensor* const> weights,
                          int64_t rows, int64_t col_rows) {
  if (weights.size() == 1) return weights[0]->data();
  tls_stack_w.Reserve(rows * col_rows);
  float* dst = tls_stack_w.data();
  for (const Tensor* w : weights) {
    dst = std::copy(w->data(), w->data() + w->numel(), dst);
  }
  return tls_stack_w.data();
}

// Checks a stack against one input [n, c, h, w] and returns its total row
// count ΣO_i.
int64_t TotalRows(std::span<const Tensor* const> weights, int64_t c,
                  const ConvGeom& g) {
  ML_CHECK(!weights.empty()) << "conv: empty weight stack";
  int64_t rows = 0;
  for (const Tensor* w : weights) {
    ML_CHECK_EQ(w->rank(), 4);
    ML_CHECK_EQ(w->dim(1), c) << "conv: channel mismatch";
    ML_CHECK_EQ(w->dim(2), g.kernel_h);
    ML_CHECK_EQ(w->dim(3), g.kernel_w);
    rows += w->dim(0);
  }
  return rows;
}

}  // namespace

void Conv2dForwardInto(const Tensor& input,
                       std::span<const Tensor* const> weights,
                       const Tensor& bias, const ConvGeom& g,
                       std::span<Tensor* const> outs) {
  ML_CHECK_EQ(input.rank(), 4);
  ML_CHECK_EQ(weights.size(), outs.size());
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t rows = TotalRows(weights, c, g);
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  ML_CHECK(ho > 0 && wo > 0) << "Conv2dForward: empty output";
  for (size_t b = 0; b < weights.size(); ++b) {
    ML_CHECK((outs[b]->shape() == Shape{n, weights[b]->dim(0), ho, wo}));
  }
  if (bias.defined()) {
    ML_CHECK_EQ(bias.rank(), 1);
    ML_CHECK_EQ(bias.dim(0), weights[0]->dim(0));
  }

  const int64_t out_spatial = ho * wo;
  const int64_t col_rows = c * g.kernel_h * g.kernel_w;
  const float* wstack = StackWeights(weights, rows, col_rows);
  // A shallow pointwise conv (U·h over R channels, TR's R×R core)
  // runs as vector chains over the sample's rows (conv_thin.h). Otherwise
  // the stack is viewed as [rows, C*Kh*Kw] and per sample out_n = W_mat ·
  // cols, with cols lowered from the sample's padded image: read in the
  // micro-kernel at stride 1 (the direct route), else as the GEMM packs
  // it. W_mat is the same for every sample, so it is packed once for the
  // whole call.
  const bool shallow =
      ConvIsPointwise(g) && conv_thin::PointwiseForwardTakes(c);
  gemm_detail::PackedA wmat;
  if (!shallow) {
    wmat = gemm_detail::PackAOnce(wstack, false, rows, col_rows, out_spatial);
  }
  // A lone weight's GEMM writes its output in place; a stack's writes one
  // sample's rows into scratch, which is then split row block by block.
  const bool in_place = weights.size() == 1;
  if (!in_place) tls_stack_rows.Reserve(rows * out_spatial);
  for (int64_t i = 0; i < n; ++i) {
    const float* in_n = input.data() + i * c * h * w;
    float* c_n = in_place ? outs[0]->data() + i * rows * out_spatial
                          : tls_stack_rows.data();
    // Overwriting C starts every chain at +0, exactly like accumulating
    // into a zeroed output.
    if (shallow) {
      conv_thin::PointwiseForward(wstack, rows, in_n, c, out_spatial, c_n);
    } else {
      gemm_detail::GemmPackedIm2Col(wmat, LowerSample(in_n, c, h, w, g),
                                    false, c_n, /*accumulate=*/false);
    }
    const float* src = c_n;
    for (size_t b = 0; b < weights.size(); ++b) {
      const int64_t o = weights[b]->dim(0);
      float* out_n = outs[b]->data() + i * o * out_spatial;
      if (!in_place) std::copy(src, src + o * out_spatial, out_n);
      src += o * out_spatial;
      if (b > 0 || !bias.defined()) continue;
      const float* pb = bias.data();
      for (int64_t oc = 0; oc < o; ++oc) {
        float* plane = out_n + oc * out_spatial;
        const float bv = pb[oc];
        for (int64_t s = 0; s < out_spatial; ++s) plane[s] += bv;
      }
    }
  }
}

void Conv2dForwardInto(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, const ConvGeom& g, Tensor* out) {
  const Tensor* weights[] = {&weight};
  Tensor* outs[] = {out};
  Conv2dForwardInto(input, weights, bias, g, outs);
}

Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const ConvGeom& g) {
  const int64_t ho = g.OutExtent(input.dim(2), g.kernel_h);
  const int64_t wo = g.OutExtent(input.dim(3), g.kernel_w);
  Tensor out{Shape{input.dim(0), weight.dim(0), ho, wo}};
  Conv2dForwardInto(input, weight, bias, g, &out);
  return out;
}

void Conv2dBackward(const Tensor& input,
                    std::span<const Tensor* const> weights,
                    std::span<const Tensor* const> grad_outputs,
                    const ConvGeom& g, Tensor* grad_input,
                    std::span<Tensor* const> grad_weights,
                    Tensor* grad_bias) {
  ML_CHECK_EQ(input.rank(), 4);
  ML_CHECK_EQ(weights.size(), grad_outputs.size());
  ML_CHECK_EQ(weights.size(), grad_weights.size());
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t rows = TotalRows(weights, c, g);
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  const int64_t col_rows = c * g.kernel_h * g.kernel_w;
  const int64_t out_spatial = ho * wo;
  const size_t blocks = weights.size();

  // The weight-gradient GEMM runs over rows [lo, hi): from the first to
  // the last weight that wants a gradient.
  int64_t lo = 0, hi = 0, row = 0;
  size_t wanted = 0, first = blocks;
  for (size_t b = 0; b < blocks; ++b) {
    const int64_t o = weights[b]->dim(0);
    ML_CHECK((grad_outputs[b]->shape() == Shape{n, o, ho, wo}));
    if (grad_weights[b] != nullptr) {
      ML_CHECK(grad_weights[b]->shape() == weights[b]->shape());
      if (first == blocks) {
        first = b;
        lo = row;
      }
      hi = row + o;
      ++wanted;
    }
    row += o;
  }
  if (grad_input) {
    ML_CHECK(grad_input->shape() == input.shape());
  }
  if (grad_bias) {
    ML_CHECK((grad_bias->shape() == Shape{weights[0]->dim(0)}));
  }
  // One weight's gradient accumulates straight into its tensor, from that
  // weight's own output gradient; a span of several accumulates into
  // scratch from the stacked output gradient and is split at the end.
  const bool wgrad = wanted > 0;
  const bool wgrad_in_place = wanted == 1;
  const conv_thin::WeightGradientRoute wgrad_route =
      conv_thin::PickWeightGradientRoute(hi - lo, col_rows, g);
  if (wgrad && !wgrad_in_place) {
    tls_stack_gw.Reserve((hi - lo) * col_rows);
    std::fill(tls_stack_gw.data(), tls_stack_gw.data() + (hi - lo) * col_rows,
              0.0f);
  }
  // The stacked output gradient of one sample, [rows, S]: a lone weight's
  // in place, a stack's copied into scratch when a GEMM reads it whole.
  const bool stack_copy =
      blocks > 1 && (grad_input != nullptr || (wgrad && !wgrad_in_place));
  if (stack_copy) tls_stack_rows.Reserve(rows * out_spatial);

  // A pointwise conv's column gradient is its input-gradient plane, so the
  // GEMM writes the plane directly. That equals Col2Im's +0 + col_grad
  // bit for bit: a GEMM chain that starts at +0 never yields −0.
  const bool pointwise = ConvIsPointwise(g);
  if (grad_input && !pointwise) tls_col_grad.Reserve(col_rows * out_spatial);

  // The stackᵀ (stored [rows, col_rows]) is the input-gradient GEMM's A for
  // every sample: packed once for the whole call.
  gemm_detail::PackedA wt;
  if (grad_input) {
    wt = gemm_detail::PackAOnce(StackWeights(weights, rows, col_rows),
                                /*trans_a=*/true, col_rows, rows, out_spatial);
  }
  for (int64_t i = 0; i < n; ++i) {
    const float* in_n = input.data() + i * c * h * w;
    const float* gstack = blocks == 1
                              ? grad_outputs[0]->data() + i * rows * out_spatial
                              : tls_stack_rows.data();
    if (stack_copy) {
      float* dst = tls_stack_rows.data();
      for (size_t b = 0; b < blocks; ++b) {
        const int64_t len = weights[b]->dim(0) * out_spatial;
        const float* src = grad_outputs[b]->data() + i * len;
        dst = std::copy(src, src + len, dst);
      }
    }

    if (wgrad) {
      // dW [hi − lo, col_rows] += gout [hi − lo, S] · colsᵀ. A rank-thin
      // product runs as vector chains (conv_thin.h): few rows (D's
      // gradient) over a channels-last copy of the sample, few columns
      // (U's) over its rows. Otherwise the engine runs it with cols lowered
      // at pack time; its A is this sample's gout, so it packs per sample.
      const int64_t o = weights[first]->dim(0);
      const float* gout =
          wgrad_in_place
              ? grad_outputs[first]->data() + i * o * out_spatial
              : gstack + lo * out_spatial;
      float* dst =
          wgrad_in_place ? grad_weights[first]->data() : tls_stack_gw.data();
      switch (wgrad_route) {
        case conv_thin::WeightGradientRoute::kFewRows:
          conv_thin::WeightGradientFewRows(gout, hi - lo, in_n, c, h, w, g,
                                           dst);
          break;
        case conv_thin::WeightGradientRoute::kFewColumns:
          conv_thin::WeightGradientFewColumns(
              gout, hi - lo, LowerSample(in_n, c, h, w, g), dst);
          break;
        case conv_thin::WeightGradientRoute::kEngine:
          gemm_detail::GemmPackedIm2Col(gout, /*trans_a=*/false,
                                        LowerSample(in_n, c, h, w, g),
                                        /*trans_b=*/true, dst, hi - lo,
                                        /*accumulate=*/true);
          break;
      }
    }

    if (grad_input) {
      // col_grad [col_rows, S] = stackᵀ · gstack [rows, S], then folded
      // back onto the input plane.
      float* gin_n = grad_input->data() + i * c * h * w;
      float* cgrad = pointwise ? gin_n : tls_col_grad.data();
      gemm_detail::GemmPacked(wt, gstack, /*trans_b=*/false, cgrad,
                              out_spatial, /*accumulate=*/false);
      if (!pointwise) FoldColumns(cgrad, c, h, w, g, gin_n);
    }

    if (grad_bias) {
      const int64_t o = weights[0]->dim(0);
      const float* gout = grad_outputs[0]->data() + i * o * out_spatial;
      float* gb = grad_bias->data();
      for (int64_t oc = 0; oc < o; ++oc) {
        const float* grow = gout + oc * out_spatial;
        float acc = 0.0f;
        for (int64_t s = 0; s < out_spatial; ++s) acc += grow[s];
        gb[oc] += acc;
      }
    }
  }
  if (wgrad && !wgrad_in_place) {
    const float* src = tls_stack_gw.data();
    for (size_t b = first; src < tls_stack_gw.data() + (hi - lo) * col_rows;
         ++b) {
      const int64_t len = weights[b]->numel();
      if (grad_weights[b]) std::copy(src, src + len, grad_weights[b]->data());
      src += len;
    }
  }
}

void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_output, const ConvGeom& g,
                    Tensor* grad_input, Tensor* grad_weight,
                    Tensor* grad_bias) {
  const Tensor* weights[] = {&weight};
  const Tensor* grad_outputs[] = {&grad_output};
  Tensor* grad_weights[] = {grad_weight};
  Conv2dBackward(input, weights, grad_outputs, g, grad_input, grad_weights,
                 grad_bias);
}

void PerSamplePointwiseConvInto(const Tensor& x, const Tensor& w, Tensor* out) {
  ML_CHECK_EQ(x.rank(), 4);
  ML_CHECK_EQ(w.rank(), 3);
  const int64_t n = x.dim(0), q = x.dim(1), spatial = x.dim(2) * x.dim(3);
  const int64_t o = w.dim(1);
  ML_CHECK_EQ(w.dim(0), n);
  ML_CHECK_EQ(w.dim(2), q);
  ML_CHECK((out->shape() == Shape{n, o, x.dim(2), x.dim(3)}));
  const float* px = x.data();
  const float* pw = w.data();
  float* py = out->data();
  for (int64_t s = 0; s < n; ++s) {
    const float* xs = px + s * q * spatial;
    const float* ws = pw + s * o * q;
    float* ys = py + s * o * spatial;
    MatmulAccumulateRaw(ws, xs, ys, o, q, spatial);
  }
}

void PerSamplePointwiseConvBackward(const Tensor& x, const Tensor& w,
                                    const Tensor& g, Tensor* grad_x,
                                    Tensor* grad_w) {
  const int64_t n = x.dim(0), q = x.dim(1), spatial = x.dim(2) * x.dim(3);
  const int64_t o = w.dim(1);
  if (grad_x) {
    ML_CHECK(grad_x->shape() == x.shape());
  }
  if (grad_w) {
    ML_CHECK(grad_w->shape() == w.shape());
  }
  for (int64_t s = 0; s < n; ++s) {
    const float* gs = g.data() + s * o * spatial;  // [O, S]
    const float* ws = w.data() + s * o * q;        // [O, Q]
    if (grad_x) {
      // gx [Q,S] = wᵀ (w stored [O,Q]) · g [O,S].
      GemmPacked(ws, /*trans_a=*/true, gs, /*trans_b=*/false,
                 grad_x->data() + s * q * spatial, q, o, spatial,
                 /*accumulate=*/true);
    }
    if (grad_w) {
      // gw [O,Q] = g [O,S] · xᵀ (x stored [Q,S]).
      GemmPacked(gs, /*trans_a=*/false, x.data() + s * q * spatial,
                 /*trans_b=*/true, grad_w->data() + s * o * q, o, spatial, q,
                 /*accumulate=*/true);
    }
  }
}

void ScaleChannelsInto(const Tensor& a, const Tensor& s, Tensor* out) {
  ML_CHECK_EQ(a.rank(), 4);
  ML_CHECK_EQ(s.rank(), 2);
  ML_CHECK_EQ(a.dim(0), s.dim(0));
  ML_CHECK_EQ(a.dim(1), s.dim(1));
  CheckSameShape(a, *out, "ScaleChannelsInto(out)");
  const int64_t planes = a.dim(0) * a.dim(1), spatial = a.dim(2) * a.dim(3);
  const float* pa = a.data();
  const float* ps = s.data();
  float* po = out->data();
  for (int64_t i = 0; i < planes; ++i) {
    const float sv = ps[i];
    const float* plane = pa + i * spatial;
    float* oplane = po + i * spatial;
    for (int64_t k = 0; k < spatial; ++k) oplane[k] = plane[k] * sv;
  }
}

void ScaleChannelsBackward(const Tensor& g, const Tensor& a, const Tensor& s,
                           Tensor* grad_a, Tensor* grad_s) {
  const int64_t planes = a.dim(0) * a.dim(1), spatial = a.dim(2) * a.dim(3);
  const float* pg = g.data();
  const float* pa = a.data();
  const float* ps = s.data();
  for (int64_t i = 0; i < planes; ++i) {
    const float* gplane = pg + i * spatial;
    if (grad_a) {
      const float scale = ps[i];
      float* gaplane = grad_a->data() + i * spatial;
      for (int64_t k = 0; k < spatial; ++k) gaplane[k] = gplane[k] * scale;
    }
    if (grad_s) {
      const float* aplane = pa + i * spatial;
      float acc = 0.0f;
      for (int64_t k = 0; k < spatial; ++k) acc += gplane[k] * aplane[k];
      grad_s->data()[i] = acc;
    }
  }
}

Tensor Conv2dDirect(const Tensor& input, const Tensor& weight,
                    const Tensor& bias, const ConvGeom& g) {
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t o = weight.dim(0);
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  Tensor out{Shape{n, o, ho, wo}};
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t oc = 0; oc < o; ++oc) {
      for (int64_t oh = 0; oh < ho; ++oh) {
        for (int64_t ow = 0; ow < wo; ++ow) {
          double acc = bias.defined() ? bias.flat(oc) : 0.0;
          for (int64_t ic = 0; ic < c; ++ic) {
            for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
              const int64_t ih = oh * g.stride + kh - g.padding;
              if (ih < 0 || ih >= h) continue;
              for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
                const int64_t iw = ow * g.stride + kw - g.padding;
                if (iw < 0 || iw >= w) continue;
                acc += static_cast<double>(
                           input.flat(((i * c + ic) * h + ih) * w + iw)) *
                       weight.flat(((oc * c + ic) * g.kernel_h + kh) *
                                       g.kernel_w +
                                   kw);
              }
            }
          }
          out.flat(((i * o + oc) * ho + oh) * wo + ow) =
              static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

void MaxPool2dInto(const Tensor& input, const ConvGeom& g,
                   std::vector<int64_t>* argmax, Tensor* out) {
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  ML_CHECK((out->shape() == Shape{n, c, ho, wo}));
  if (argmax) argmax->assign(static_cast<size_t>(out->numel()), -1);
  const float* pin = input.data();
  float* pout = out->data();
  int64_t out_idx = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = pin + (i * c + ch) * h * w;
      for (int64_t oh = 0; oh < ho; ++oh) {
        for (int64_t ow = 0; ow < wo; ++ow, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_off = -1;
          for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
            const int64_t ih = oh * g.stride + kh - g.padding;
            if (ih < 0 || ih >= h) continue;
            for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
              const int64_t iw = ow * g.stride + kw - g.padding;
              if (iw < 0 || iw >= w) continue;
              const float v = plane[ih * w + iw];
              if (v > best) {
                best = v;
                best_off = (i * c + ch) * h * w + ih * w + iw;
              }
            }
          }
          ML_DCHECK(best_off >= 0);
          pout[out_idx] = best;
          if (argmax) (*argmax)[static_cast<size_t>(out_idx)] = best_off;
        }
      }
    }
  }
}

Tensor MaxPool2d(const Tensor& input, const ConvGeom& g,
                 std::vector<int64_t>* argmax) {
  const int64_t ho = g.OutExtent(input.dim(2), g.kernel_h);
  const int64_t wo = g.OutExtent(input.dim(3), g.kernel_w);
  Tensor out{Shape{input.dim(0), input.dim(1), ho, wo}};
  MaxPool2dInto(input, g, argmax, &out);
  return out;
}

Tensor MaxPool2dBackward(const Tensor& grad_output, const Shape& input_shape,
                         const std::vector<int64_t>& argmax) {
  ML_CHECK_EQ(static_cast<int64_t>(argmax.size()), grad_output.numel());
  Tensor grad_input{input_shape};
  const float* pg = grad_output.data();
  float* pi = grad_input.data();
  for (int64_t i = 0, n = grad_output.numel(); i < n; ++i) {
    pi[argmax[static_cast<size_t>(i)]] += pg[i];
  }
  return grad_input;
}

void AvgPool2dInto(const Tensor& input, const ConvGeom& g, Tensor* out) {
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  const float inv = 1.0f / static_cast<float>(g.kernel_h * g.kernel_w);
  ML_CHECK((out->shape() == Shape{n, c, ho, wo}));
  const float* pin = input.data();
  float* pout = out->data();
  int64_t out_idx = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = pin + (i * c + ch) * h * w;
      for (int64_t oh = 0; oh < ho; ++oh) {
        for (int64_t ow = 0; ow < wo; ++ow, ++out_idx) {
          float acc = 0.0f;
          for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
            const int64_t ih = oh * g.stride + kh - g.padding;
            if (ih < 0 || ih >= h) continue;
            for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
              const int64_t iw = ow * g.stride + kw - g.padding;
              if (iw < 0 || iw >= w) continue;
              acc += plane[ih * w + iw];
            }
          }
          pout[out_idx] = acc * inv;
        }
      }
    }
  }
}

Tensor AvgPool2d(const Tensor& input, const ConvGeom& g) {
  const int64_t ho = g.OutExtent(input.dim(2), g.kernel_h);
  const int64_t wo = g.OutExtent(input.dim(3), g.kernel_w);
  Tensor out{Shape{input.dim(0), input.dim(1), ho, wo}};
  AvgPool2dInto(input, g, &out);
  return out;
}

Tensor AvgPool2dBackward(const Tensor& grad_output, const Shape& input_shape,
                         const ConvGeom& g) {
  const int64_t n = input_shape.dim(0), c = input_shape.dim(1),
                h = input_shape.dim(2), w = input_shape.dim(3);
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  const float inv = 1.0f / static_cast<float>(g.kernel_h * g.kernel_w);
  Tensor grad_input{input_shape};
  const float* pg = grad_output.data();
  float* pi = grad_input.data();
  int64_t out_idx = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      float* plane = pi + (i * c + ch) * h * w;
      for (int64_t oh = 0; oh < ho; ++oh) {
        for (int64_t ow = 0; ow < wo; ++ow, ++out_idx) {
          const float gv = pg[out_idx] * inv;
          for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
            const int64_t ih = oh * g.stride + kh - g.padding;
            if (ih < 0 || ih >= h) continue;
            for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
              const int64_t iw = ow * g.stride + kw - g.padding;
              if (iw < 0 || iw >= w) continue;
              plane[ih * w + iw] += gv;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

void GlobalAvgPoolInto(const Tensor& input, Tensor* out) {
  ML_CHECK_EQ(input.rank(), 4);
  const int64_t n = input.dim(0), c = input.dim(1),
                spatial = input.dim(2) * input.dim(3);
  const float inv = 1.0f / static_cast<float>(spatial);
  ML_CHECK((out->shape() == Shape{n, c}));
  const float* pin = input.data();
  float* pout = out->data();
  for (int64_t i = 0; i < n * c; ++i) {
    const float* plane = pin + i * spatial;
    float acc = 0.0f;
    for (int64_t s = 0; s < spatial; ++s) acc += plane[s];
    pout[i] = acc * inv;
  }
}

Tensor GlobalAvgPool(const Tensor& input) {
  Tensor out{Shape{input.dim(0), input.dim(1)}};
  GlobalAvgPoolInto(input, &out);
  return out;
}

Tensor GlobalAvgPoolBackward(const Tensor& grad_output,
                             const Shape& input_shape) {
  const int64_t n = input_shape.dim(0), c = input_shape.dim(1),
                spatial = input_shape.dim(2) * input_shape.dim(3);
  const float inv = 1.0f / static_cast<float>(spatial);
  Tensor grad_input{input_shape};
  const float* pg = grad_output.data();
  float* pi = grad_input.data();
  for (int64_t i = 0; i < n * c; ++i) {
    const float gv = pg[i] * inv;
    float* plane = pi + i * spatial;
    for (int64_t s = 0; s < spatial; ++s) plane[s] = gv;
  }
  return grad_input;
}

}  // namespace metalora
