#include "tensor/conv_ops.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/matmul.h"
#include "tensor/tensor_ops.h"

namespace metalora {

namespace {

// The output columns [lo, hi) of one kernel column kw whose input column
// iw = ow·stride + kw − padding lands inside [0, w). Every other output
// column reads padding. Both ends are clamped to [0, wo] and lo <= hi.
struct ValidRange {
  int64_t lo, hi;
};

ValidRange ValidOutRange(int64_t kw, int64_t w, int64_t wo,
                         const ConvGeom& g) {
  const int64_t offset = kw - g.padding;  // iw at ow = 0
  // Smallest ow with ow·stride + offset >= 0.
  const int64_t lo =
      offset >= 0 ? 0 : std::min(wo, (-offset + g.stride - 1) / g.stride);
  // One past the largest ow with ow·stride + offset <= w − 1.
  const int64_t last = w - 1 - offset;
  const int64_t hi = last < 0 ? 0 : std::min(wo, last / g.stride + 1);
  return {lo, std::max(lo, hi)};
}

}  // namespace

void Im2Col(const float* input, int64_t channels, int64_t h, int64_t w,
            const ConvGeom& g, float* columns) {
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  const int64_t out_spatial = ho * wo;
  const int64_t stride = g.stride;
  // Row r of `columns` corresponds to (c, kh, kw); column to (oh, ow).
  // Channel c owns rows [c·Kh·Kw, (c+1)·Kh·Kw): writes are disjoint per
  // channel, so channels fan out onto the pool. Each row computes its
  // valid ow range once: the interior is a copy (contiguous at stride 1)
  // and the padding on either side a zero fill.
  ParallelFor(0, channels, 1, [=, &g](int64_t c_lo, int64_t c_hi) {
    for (int64_t c = c_lo; c < c_hi; ++c) {
      const float* chan = input + c * h * w;
      int64_t row = c * g.kernel_h * g.kernel_w;
      for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
        for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
          const ValidRange r = ValidOutRange(kw, w, wo, g);
          float* out_row = columns + row * out_spatial;
          for (int64_t oh = 0; oh < ho; ++oh) {
            float* dst = out_row + oh * wo;
            const int64_t ih = oh * stride + kh - g.padding;
            if (ih < 0 || ih >= h) {
              std::fill(dst, dst + wo, 0.0f);
              continue;
            }
            std::fill(dst, dst + r.lo, 0.0f);
            if (r.lo < r.hi) {
              const float* src =
                  chan + ih * w + r.lo * stride + kw - g.padding;
              float* d = dst + r.lo;
              const int64_t count = r.hi - r.lo;
              if (stride == 1) {
                std::copy(src, src + count, d);
              } else {
                for (int64_t i = 0; i < count; ++i) d[i] = src[i * stride];
              }
            }
            std::fill(dst + r.hi, dst + wo, 0.0f);
          }
        }
      }
    }
  });
}

void Col2Im(const float* columns, int64_t channels, int64_t h, int64_t w,
            const ConvGeom& g, float* input_grad) {
  const int64_t ho = g.OutExtent(h, g.kernel_h);
  const int64_t wo = g.OutExtent(w, g.kernel_w);
  const int64_t out_spatial = ho * wo;
  const int64_t stride = g.stride;
  // Kernel positions of one channel overlap in the input plane, but the
  // channels themselves write disjoint planes: channel c accumulates only
  // into input_grad[c·h·w, (c+1)·h·w) from its own row block. Within a
  // channel the loops keep the serial (kh, kw, oh, ow) order, and one
  // (kh, kw) row reaches each input element at most once, so every
  // element sums its contributions in (kh, kw) order: bit-identical to a
  // serial pass for any thread count. Padding columns are skipped by the
  // row's valid ow range instead of a per-element test.
  ParallelFor(0, channels, 1, [=, &g](int64_t c_lo, int64_t c_hi) {
    for (int64_t c = c_lo; c < c_hi; ++c) {
      float* chan = input_grad + c * h * w;
      int64_t row = c * g.kernel_h * g.kernel_w;
      for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
        for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
          const ValidRange r = ValidOutRange(kw, w, wo, g);
          const float* in_row = columns + row * out_spatial;
          for (int64_t oh = 0; oh < ho; ++oh) {
            const int64_t ih = oh * stride + kh - g.padding;
            if (ih < 0 || ih >= h || r.lo >= r.hi) continue;
            const float* src = in_row + oh * wo + r.lo;
            float* dst = chan + ih * w + r.lo * stride + kw - g.padding;
            const int64_t count = r.hi - r.lo;
            if (stride == 1) {
              for (int64_t i = 0; i < count; ++i) dst[i] += src[i];
            } else {
              for (int64_t i = 0; i < count; ++i) dst[i * stride] += src[i];
            }
          }
        }
      }
    }
  });
}

bool ConvIsPointwise(const ConvGeom& g) {
  return g.kernel_h == 1 && g.kernel_w == 1 && g.stride == 1 &&
         g.padding == 0;
}

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

  const int64_t col_rows = c * g.kernel_h * g.kernel_w;
  const int64_t col_cols = ho * wo;
  // A pointwise conv's columns are its input plane: read it in place.
  const bool pointwise = ConvIsPointwise(g);
  std::vector<float> columns;
  if (!pointwise) columns.resize(static_cast<size_t>(col_rows * col_cols));

  // weight viewed as [O, C*Kh*Kw]; per-sample: out_n = W_mat · cols.
  const float* wmat = weight.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* in_n = input.data() + i * c * h * w;
    const float* cols = in_n;
    if (!pointwise) {
      Im2Col(in_n, c, h, w, g, columns.data());
      cols = columns.data();
    }
    float* out_n = out->data() + i * o * col_cols;
    // out_n is zero-initialized by the caller's allocation.
    if (precision == OpPrecision::kFp32) {
      MatmulAccumulateRaw(wmat, cols, out_n, o, col_rows, col_cols);
    } else {
      // bf16 tier (int8 requests land here too: conv caps at bf16).
      GemmPackedBf16(wmat, false, cols, false, out_n, o, col_rows, col_cols,
                     /*accumulate=*/true);
    }
    if (bias.defined()) {
      const float* pb = bias.data();
      for (int64_t oc = 0; oc < o; ++oc) {
        float* plane = out_n + oc * col_cols;
        const float bv = pb[oc];
        for (int64_t s = 0; s < col_cols; ++s) plane[s] += bv;
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
  const int64_t col_cols = ho * wo;

  if (grad_input) *grad_input = Tensor::Zeros(input.shape());
  if (grad_weight) *grad_weight = Tensor::Zeros(weight.shape());
  if (grad_bias && has_bias) *grad_bias = Tensor::Zeros(Shape{o});

  // A pointwise conv skips both lowering buffers: its columns are the
  // input plane, and its column gradient is the input-gradient plane,
  // which the GEMM writes directly. That write equals Col2Im's
  // +0 + col_grad bit for bit: a GEMM chain that starts at +0 never
  // yields −0.
  const bool pointwise = ConvIsPointwise(g);
  std::vector<float> columns, col_grad;
  if (!pointwise) {
    if (grad_weight) columns.resize(static_cast<size_t>(col_rows * col_cols));
    if (grad_input) col_grad.resize(static_cast<size_t>(col_rows * col_cols));
  }

  const float* wmat = weight.data();  // [o, col_rows]
  for (int64_t i = 0; i < n; ++i) {
    const float* gout = grad_output.data() + i * o * col_cols;
    const float* in_n = input.data() + i * c * h * w;

    if (grad_weight) {
      // dW [o, col_rows] += gout [o, S] · colsᵀ (cols stored [col_rows, S]).
      const float* cols = in_n;
      if (!pointwise) {
        Im2Col(in_n, c, h, w, g, columns.data());
        cols = columns.data();
      }
      GemmPacked(gout, /*trans_a=*/false, cols, /*trans_b=*/true,
                 grad_weight->data(), o, col_cols, col_rows,
                 /*accumulate=*/true);
    }

    if (grad_input) {
      // col_grad [col_rows, S] = Wᵀ (W stored [o, col_rows]) · gout [o, S].
      float* gin_n = grad_input->data() + i * c * h * w;
      float* cgrad = pointwise ? gin_n : col_grad.data();
      GemmPacked(wmat, /*trans_a=*/true, gout, /*trans_b=*/false, cgrad,
                 col_rows, o, col_cols, /*accumulate=*/false);
      if (!pointwise) Col2Im(cgrad, c, h, w, g, gin_n);
    }

    if (grad_bias && has_bias) {
      float* gb = grad_bias->data();
      for (int64_t oc = 0; oc < o; ++oc) {
        const float* grow = gout + oc * col_cols;
        float acc = 0.0f;
        for (int64_t s = 0; s < col_cols; ++s) acc += grow[s];
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
