#include "tensor/conv_ops.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "tensor/gemm.h"
#include "tensor/gemm_detail.h"
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

void Conv2dForwardInto(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, const ConvGeom& g, Tensor* out,
                       OpPrecision precision) {
  ML_CHECK_EQ(input.rank(), 4);
  ML_CHECK_EQ(weight.rank(), 4);
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t o = weight.dim(0);
  ML_CHECK_EQ(weight.dim(1), c) << "Conv2dForward: channel mismatch";
  ML_CHECK_EQ(weight.dim(2), g.kernel_h);
  ML_CHECK_EQ(weight.dim(3), g.kernel_w);
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  ML_CHECK(ho > 0 && wo > 0) << "Conv2dForward: empty output";
  ML_CHECK((out->shape() == Shape{n, o, ho, wo}));
  if (bias.defined()) {
    ML_CHECK_EQ(bias.rank(), 1);
    ML_CHECK_EQ(bias.dim(0), o);
  }

  const int64_t out_spatial = ho * wo;
  const int64_t col_rows = c * g.kernel_h * g.kernel_w;
  // weight viewed as [O, C*Kh*Kw]; per-sample: out_n = W_mat · cols, with
  // cols lowered from the sample as the GEMM packs it. W_mat is the same
  // for every sample, so it is packed once for the whole call (bf16 tier
  // for kBf16, and for kInt8 too: conv caps at bf16).
  const bool fp32 = precision == OpPrecision::kFp32;
  const gemm_detail::PackedA wmat =
      fp32 ? gemm_detail::PackAOnce(weight.data(), false, o, col_rows,
                                    out_spatial)
           : gemm_detail::PackAOnceBf16(weight.data(), false, o, col_rows,
                                        out_spatial);
  for (int64_t i = 0; i < n; ++i) {
    const Im2ColOperand cols =
        LowerSample(input.data() + i * c * h * w, c, h, w, g);
    float* out_n = out->data() + i * o * out_spatial;
    // out_n is zero-initialized by the caller's allocation.
    if (fp32) {
      gemm_detail::GemmPackedIm2Col(wmat, cols, false, out_n,
                                    /*accumulate=*/true);
    } else {
      gemm_detail::GemmPackedBf16Im2Col(wmat, cols, false, out_n,
                                        /*accumulate=*/true);
    }
    if (bias.defined()) {
      const float* pb = bias.data();
      for (int64_t oc = 0; oc < o; ++oc) {
        float* plane = out_n + oc * out_spatial;
        const float bv = pb[oc];
        for (int64_t s = 0; s < out_spatial; ++s) plane[s] += bv;
      }
    }
  }
}

Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const ConvGeom& g) {
  const int64_t ho = g.OutExtent(input.dim(2), g.kernel_h);
  const int64_t wo = g.OutExtent(input.dim(3), g.kernel_w);
  Tensor out{Shape{input.dim(0), weight.dim(0), ho, wo}};
  Conv2dForwardInto(input, weight, bias, g, &out);
  return out;
}

void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_output, const ConvGeom& g,
                    Tensor* grad_input, Tensor* grad_weight, Tensor* grad_bias,
                    bool has_bias) {
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t o = weight.dim(0);
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  ML_CHECK_EQ(grad_output.dim(0), n);
  ML_CHECK_EQ(grad_output.dim(1), o);
  ML_CHECK_EQ(grad_output.dim(2), ho);
  ML_CHECK_EQ(grad_output.dim(3), wo);

  const int64_t col_rows = c * g.kernel_h * g.kernel_w;
  const int64_t out_spatial = ho * wo;

  if (grad_input) *grad_input = Tensor::Zeros(input.shape());
  if (grad_weight) *grad_weight = Tensor::Zeros(weight.shape());
  if (grad_bias && has_bias) *grad_bias = Tensor::Zeros(Shape{o});

  // A pointwise conv's column gradient is its input-gradient plane, so the
  // GEMM writes the plane directly. That equals Col2Im's +0 + col_grad
  // bit for bit: a GEMM chain that starts at +0 never yields −0.
  const bool pointwise = ConvIsPointwise(g);
  if (grad_input && !pointwise) tls_col_grad.Reserve(col_rows * out_spatial);

  // Wᵀ (W stored [o, col_rows]) is the input-gradient GEMM's A for every
  // sample: packed once for the whole call.
  gemm_detail::PackedA wt;
  if (grad_input) {
    wt = gemm_detail::PackAOnce(weight.data(), /*trans_a=*/true, col_rows, o,
                                out_spatial);
  }
  for (int64_t i = 0; i < n; ++i) {
    const float* gout = grad_output.data() + i * o * out_spatial;
    const float* in_n = input.data() + i * c * h * w;

    if (grad_weight) {
      // dW [o, col_rows] += gout [o, S] · colsᵀ, cols lowered at pack time.
      // Its A is this sample's gout, so it packs per sample.
      gemm_detail::GemmPackedIm2Col(gout, /*trans_a=*/false,
                                    LowerSample(in_n, c, h, w, g),
                                    /*trans_b=*/true, grad_weight->data(), o,
                                    /*accumulate=*/true);
    }

    if (grad_input) {
      // col_grad [col_rows, S] = Wᵀ · gout [o, S], then folded back onto
      // the input plane.
      float* gin_n = grad_input->data() + i * c * h * w;
      float* cgrad = pointwise ? gin_n : tls_col_grad.data();
      gemm_detail::GemmPacked(wt, gout, /*trans_b=*/false, cgrad, out_spatial,
                              /*accumulate=*/false);
      if (!pointwise) FoldColumns(cgrad, c, h, w, g, gin_n);
    }

    if (grad_bias && has_bias) {
      float* gb = grad_bias->data();
      for (int64_t oc = 0; oc < o; ++oc) {
        const float* grow = gout + oc * out_spatial;
        float acc = 0.0f;
        for (int64_t s = 0; s < out_spatial; ++s) acc += grow[s];
        gb[oc] += acc;
      }
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
