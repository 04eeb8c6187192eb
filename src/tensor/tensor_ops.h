// Elementwise, reduction, and layout kernels over Tensor.
//
// These are the non-differentiable building blocks; the autograd layer
// composes them into differentiable ops. All functions allocate their
// result unless the name ends in InPlace.
#ifndef METALORA_TENSOR_TENSOR_OPS_H_
#define METALORA_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace metalora {

// ---------------------------------------------------------------------------
// Elementwise arithmetic. Shapes must match exactly unless stated otherwise.
// ---------------------------------------------------------------------------

/// c = a + b.
Tensor Add(const Tensor& a, const Tensor& b);
/// c = a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
/// c = a * b (Hadamard).
Tensor Mul(const Tensor& a, const Tensor& b);
/// c = a / b.
Tensor Div(const Tensor& a, const Tensor& b);
/// c = a * s.
Tensor Scale(const Tensor& a, float s);
/// c = a + s.
Tensor AddScalar(const Tensor& a, float s);
/// dst += src (shapes must match).
void AddInPlace(Tensor& dst, const Tensor& src);
/// dst += alpha * src.
void AxpyInPlace(Tensor& dst, float alpha, const Tensor& src);
/// dst *= s.
void ScaleInPlace(Tensor& dst, float s);

/// c[i,j] = a[i,j] + bias[j] for a of shape [N, C] and bias of shape [C].
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);

// Out-parameter variants writing into a caller-provided tensor of the
// result shape (workspace-arena fast path; no allocation). The elementwise
// ones (AddInto through AddScalarInto) may write in place over an input;
// the others' `out` may not alias an input.
void AddInto(const Tensor& a, const Tensor& b, Tensor* out);
void SubInto(const Tensor& a, const Tensor& b, Tensor* out);
void MulInto(const Tensor& a, const Tensor& b, Tensor* out);
void ScaleInto(const Tensor& a, float s, Tensor* out);
void AddScalarInto(const Tensor& a, float s, Tensor* out);
void AddRowBroadcastInto(const Tensor& a, const Tensor& bias, Tensor* out);
void SumAxisInto(const Tensor& a, int axis, Tensor* out);
void PermuteInto(const Tensor& a, const std::vector<int>& perm, Tensor* out);

/// Dies unless `a` and `b` have the same shape; `op` names the caller.
void CheckSameShape(const Tensor& a, const Tensor& b, const char* op);

// Elementwise maps over a functor. Templates, not std::function: the
// functor inlines into the loop (the activations' forward and backward
// run these over every element), and the per-element expression is
// exactly the functor's.

/// out[i] = f(a[i]) into a caller-provided tensor of a's shape.
template <typename F>
void MapInto(const Tensor& a, F&& f, Tensor* out) {
  CheckSameShape(a, *out, "MapInto(out)");
  const float* pa = a.data();
  float* po = out->data();
  for (int64_t i = 0, n = a.numel(); i < n; ++i) po[i] = f(pa[i]);
}

/// out[i] = f(a[i], b[i]) (same shapes) into a caller-provided tensor.
template <typename F>
void ZipInto(const Tensor& a, const Tensor& b, F&& f, Tensor* out) {
  CheckSameShape(a, b, "Zip");
  CheckSameShape(a, *out, "ZipInto(out)");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  for (int64_t i = 0, n = a.numel(); i < n; ++i) po[i] = f(pa[i], pb[i]);
}

/// Applies `f` to every element.
template <typename F>
Tensor Map(const Tensor& a, F&& f) {
  Tensor out(a.shape());
  MapInto(a, f, &out);
  return out;
}

/// Applies `f` pairwise (same shapes).
template <typename F>
Tensor Zip(const Tensor& a, const Tensor& b, F&& f) {
  Tensor out(a.shape());
  ZipInto(a, b, f, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

/// Sum of all elements.
double SumAll(const Tensor& a);
/// Mean of all elements.
double MeanAll(const Tensor& a);
/// Max of all elements (tensor must be non-empty).
float MaxAll(const Tensor& a);
/// Min of all elements.
float MinAll(const Tensor& a);
/// L2 norm of all elements.
double Norm2(const Tensor& a);

/// Reduces dimension `axis` by summation. Result rank is rank-1.
Tensor SumAxis(const Tensor& a, int axis);
/// Reduces dimension `axis` by mean.
Tensor MeanAxis(const Tensor& a, int axis);

/// For a of shape [N, C]: index of the max element in each row.
std::vector<int64_t> ArgmaxRows(const Tensor& a);

// ---------------------------------------------------------------------------
// Layout.
// ---------------------------------------------------------------------------

/// Transposes a 2-D tensor.
Tensor Transpose2D(const Tensor& a);

/// Permutes dimensions: out.dim(i) = a.dim(perm[i]).
Tensor Permute(const Tensor& a, const std::vector<int>& perm);

/// Selects rows (dimension 0) by index; out.shape = [idx.size(), rest...].
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& idx);

/// Concatenates along dimension 0. All inputs must agree on trailing dims.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// One-hot encodes labels into shape [n, num_classes].
Tensor OneHot(const std::vector<int64_t>& labels, int64_t num_classes);

// ---------------------------------------------------------------------------
// Comparisons (test helpers).
// ---------------------------------------------------------------------------

/// True if shapes match and elements differ by at most `atol + rtol * |b|`.
bool AllClose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

/// Largest absolute elementwise difference (shapes must match).
float MaxAbsDiff(const Tensor& a, const Tensor& b);

}  // namespace metalora

#endif  // METALORA_TENSOR_TENSOR_OPS_H_
