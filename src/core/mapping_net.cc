#include "core/mapping_net.h"

#include "autograd/ops.h"

namespace metalora {
namespace core {

MappingNet::MappingNet(int64_t feature_dim, int64_t hidden, int64_t rank,
                       SeedShape seed_shape, Rng& rng)
    : Module("MappingNet"), rank_(rank), seed_shape_(seed_shape) {
  ML_CHECK_GT(feature_dim, 0);
  ML_CHECK_GT(hidden, 0);
  ML_CHECK_GT(rank, 0);
  const int64_t out_dim =
      seed_shape == SeedShape::kVector ? rank : rank * rank;
  mlp_ = RegisterModule(
      "mlp", std::make_unique<nn::Mlp>(
                 std::vector<int64_t>{feature_dim, hidden, out_dim},
                 nn::Activation::kRelu, /*dropout=*/0.0f, rng));
}

Variable MappingNet::Forward(const Variable& features) {
  ML_CHECK_EQ(features.rank(), 2);
  const int64_t n = features.dim(0);
  Variable raw = autograd::Tanh(mlp_->Forward(features));
  if (seed_shape_ == SeedShape::kVector) {
    // c = 1 + tanh(raw): the identity diagonal Λ plus a bounded deviation.
    return autograd::AddScalar(raw, 1.0f);
  }
  // C = I_R + tanh(raw): identity ring core plus bounded deviation.
  Variable dev = autograd::Reshape(raw, Shape{n, rank_, rank_});
  Tensor eye{Shape{n, rank_, rank_}};
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t r = 0; r < rank_; ++r) {
      eye.flat((s * rank_ + r) * rank_ + r) = 1.0f;
    }
  }
  return autograd::Add(dev,
                       autograd::Variable(std::move(eye), /*requires_grad=*/false));
}

Variable AlignSeedToRows(const Variable& seed, int64_t x_rows) {
  const int64_t n = seed.dim(0);
  ML_CHECK(x_rows % n == 0 && x_rows >= n)
      << "conditioning features batch size mismatch: x has " << x_rows
      << " rows, features have " << n;
  return autograd::RepeatRowsInterleaved(seed, x_rows / n);
}

}  // namespace core
}  // namespace metalora
