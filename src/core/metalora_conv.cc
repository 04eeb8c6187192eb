#include "core/metalora_conv.h"

#include <cmath>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace core {

MetaLoraTrConv::MetaLoraTrConv(std::unique_ptr<nn::Conv2d> base,
                               const AdapterOptions& options)
    : Adapter("MetaLoraTrConv", options) {
  ML_CHECK(base != nullptr);
  ML_CHECK_GT(options.rank, 0);
  ML_CHECK_GT(options.feature_dim, 0);
  const int64_t in = base->in_channels();
  const int64_t out = base->out_channels();
  const int64_t k = base->geom().kernel_h;
  const int64_t r = options.rank;
  scaling_ = options.alpha / static_cast<float>(r);

  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options.seed);
  Tensor a{Shape{r * r, in, k, k}};
  FillNormal(a, rng, 0.0f,
             1.0f / std::sqrt(static_cast<float>(in * k * k)));
  core_a_ = RegisterParameter("core_a", std::move(a));
  core_b_ = RegisterParameter("core_b", Tensor::Zeros(Shape{r, out, r}));
  mapping_ = RegisterModule(
      "mapping", std::make_unique<MappingNet>(options.feature_dim,
                                              options.mapping_hidden, r,
                                              SeedShape::kMatrix, rng));
}

Variable MetaLoraTrConv::Forward(const Variable& x) {
  const Variable features = bound_features();
  ML_CHECK(features.defined())
      << "MetaLoraTrConv: SetFeatures must be called before Forward";
  ML_CHECK_EQ(features.dim(0), x.dim(0));
  const int64_t n = x.dim(0);
  const int64_t out = base_->out_channels();
  const int64_t r = options_.rank;

  Variable y = base_->Forward(x);

  // Per-sample recovery weights W2[n, o, (r0,r1)] = Σ_{r2} C[n,r2,r0]·B[r1,o,r2]
  // depend only on (features, core_b): the conditioning cache stores them so
  // a warm no-grad forward skips the mapping net and this contraction.
  auto contract_recovery = [&](const Variable& core_c) {
    Variable c_t = autograd::Permute(core_c, {0, 2, 1});          // [N, r0, r2]
    Variable c_flat = autograd::Reshape(c_t, Shape{n * r, r});    // [(n,r0), r2]
    Variable b_mat = autograd::Reshape(
        autograd::Permute(core_b_, {2, 0, 1}),
        Shape{r, r * out});                                     // [r2,(r1,o)]
    Variable t = autograd::Matmul(c_flat, b_mat);               // [(n,r0),(r1,o)]
    t = autograd::Reshape(t, Shape{n, r, r, out});              // [n,r0,r1,o]
    Variable w2 = autograd::Permute(t, {0, 3, 1, 2});           // [n,o,r0,r1]
    return autograd::Reshape(w2, Shape{n, out, r * r});         // q = r0*R + r1
  };

  Variable w2 = cache_.DeltaOrCompute(  // [N, O, R*R]
      cache_salt_, features, [&] { return mapping_->Forward(features); },
      contract_recovery);

  // U[n, (r0,r1), h, w]: conv with the first ring core.
  Variable u = autograd::Conv2d(x, core_a_, Variable(), base_->geom());

  Variable d = autograd::PerSamplePointwiseConv(u, w2);
  return autograd::Add(y, autograd::Scale(d, scaling_));
}

int64_t MetaLoraTrConv::AdapterParamCount() const {
  return core_a_.numel() + core_b_.numel() + mapping_->ParamCount();
}

}  // namespace core
}  // namespace metalora
