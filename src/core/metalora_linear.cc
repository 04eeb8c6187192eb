#include "core/metalora_linear.h"

#include <cmath>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "tensor/matmul.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"
#include "tn/tr_format.h"

namespace metalora {
namespace core {

MetaLoraTrLinear::MetaLoraTrLinear(std::unique_ptr<nn::Linear> base,
                                   const AdapterOptions& options)
    : Adapter("MetaLoraTrLinear", options) {
  ML_CHECK(base != nullptr);
  ML_CHECK_GT(options.rank, 0);
  ML_CHECK_GT(options.feature_dim, 0)
      << "MetaLoRA needs options.feature_dim (the extractor embedding size)";
  const int64_t in = base->in_features();
  const int64_t out = base->out_features();
  scaling_ = options.alpha / static_cast<float>(options.rank);

  base_ = RegisterModule("base", std::move(base));
  base_->SetTrainable(false);

  Rng rng(options.seed);
  Tensor a{Shape{options.rank, in, options.rank}};
  // Scale so that u = x ·_i A has O(1) entries per bond pair.
  FillNormal(a, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(in)));
  core_a_ = RegisterParameter("core_a", std::move(a));
  core_b_ = RegisterParameter(
      "core_b", Tensor::Zeros(Shape{options.rank, out, options.rank}));
  mapping_ = RegisterModule(
      "mapping", std::make_unique<MappingNet>(options.feature_dim,
                                              options.mapping_hidden,
                                              options.rank,
                                              SeedShape::kMatrix, rng));
}

Variable MetaLoraTrLinear::Forward(const Variable& x) {
  const Variable features = bound_features();
  ML_CHECK(features.defined())
      << "MetaLoraTrLinear: SetFeatures must be called before Forward";
  const int64_t n = x.dim(0);
  const int64_t in = base_->in_features();
  const int64_t out = base_->out_features();
  const int64_t r = options_.rank;

  Variable y = base_->Forward(x);

  // The mapping net generates the seed core and the TR contraction chain
  // applies it (Eq. 7). The chain is ordered so everything that depends
  // only on (features, factors) — and not on x — contracts into
  // per-feature recovery weights M[n, (r0,r1), o] = Σ_{r2} C[n,r2,r0]·
  // B[r1,o,r2] first. M is what the conditioning cache stores: a warm
  // no-grad forward skips the mapping net and the B-side contraction
  // entirely.
  //
  // Recovery weights from a generated core batch [N_f, R(r2), R(r0)].
  auto contract_recovery = [&](const Variable& core_c) {
    const int64_t nf = core_c.dim(0);
    Variable c_t = autograd::Permute(core_c, {0, 2, 1});  // [N_f, r0, r2]
    Variable c_flat = autograd::Reshape(c_t, Shape{nf * r, r});
    Variable b_mat = autograd::Reshape(
        autograd::Permute(core_b_, {2, 0, 1}), Shape{r, r * out});
    // Row q = r0*R + r1 matches the bond order of U below.
    return autograd::Reshape(autograd::Matmul(c_flat, b_mat),
                             Shape{nf, r * r, out});
  };

  Variable m = cache_.DeltaOrCompute(  // [N_f, R*R, O]
      cache_salt_, features, [&] { return mapping_->Forward(features); },
      contract_recovery);

  // U[n, r0, r1] = Σ_i x[n,i] A[r0, i, r1], flattened to q = r0*R + r1.
  Variable a_mat = autograd::Reshape(
      autograd::Permute(core_a_, {1, 0, 2}), Shape{in, r * r});
  Variable u = autograd::Reshape(autograd::Matmul(x, a_mat),
                                 Shape{n, 1, r * r});

  // d[n, o] = Σ_q U[n, q] M[n, q, o].
  Variable d = autograd::Reshape(
      autograd::BatchedMatmul(u, AlignSeedToRows(m, n)), Shape{n, out});
  return autograd::Add(y, autograd::Scale(d, scaling_));
}

int64_t MetaLoraTrLinear::AdapterParamCount() const {
  return core_a_.numel() + core_b_.numel() + mapping_->ParamCount();
}

Tensor MetaLoraTrLinear::DeltaWeightFor(const Tensor& seed_core) const {
  ML_CHECK_EQ(seed_core.rank(), 2);
  ML_CHECK_EQ(seed_core.dim(0), options_.rank);
  ML_CHECK_EQ(seed_core.dim(1), options_.rank);
  auto delta_io =
      tn::TrMatrix(core_a_.value(), core_b_.value(), seed_core);  // [I, O]
  ML_CHECK(delta_io.ok()) << delta_io.status().ToString();
  Tensor delta = Transpose2D(delta_io.value());  // layer layout [O, I]
  ScaleInPlace(delta, scaling_);
  return delta;
}

}  // namespace core
}  // namespace metalora
