// google-benchmark micro-kernels backing every experiment binary: matmul,
// conv2d, tensor contraction, CP/TR reconstruction, adapter forward passes,
// and the autograd round trip.
#include <benchmark/benchmark.h>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "core/metalora_linear.h"
#include "core/tn_adapter.h"
#include "nn/attention.h"
#include "nn/resnet.h"
#include "tensor/conv_ops.h"
#include "tensor/matmul.h"
#include "tensor/random_init.h"
#include "tn/contraction.h"
#include "tn/cp_als.h"
#include "tn/cp_format.h"
#include "tn/tr_format.h"
#include "tn/tucker_format.h"

namespace {

using namespace metalora;  // NOLINT

void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = RandomNormal(Shape{n, n}, rng);
  Tensor b = RandomNormal(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_Conv2dForward(benchmark::State& state) {
  const int64_t c = state.range(0);
  Rng rng(2);
  Tensor x = RandomNormal(Shape{4, c, 16, 16}, rng);
  Tensor w = RandomNormal(Shape{c, c, 3, 3}, rng);
  ConvGeom g{3, 3, 1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Conv2dForward(x, w, Tensor(), g));
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

void BM_Contraction3rdOrder(benchmark::State& state) {
  const int64_t d = state.range(0);
  Rng rng(3);
  Tensor a = RandomNormal(Shape{d, d, d}, rng);
  Tensor b = RandomNormal(Shape{d, d, d}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tn::Contract(a, b, {1, 2}, {1, 0}).ValueOrDie());
  }
}
BENCHMARK(BM_Contraction3rdOrder)->Arg(16)->Arg(32);

void BM_CpReconstruct(benchmark::State& state) {
  const int64_t rank = state.range(0);
  Rng rng(4);
  tn::CpFormat cp = tn::CpFormat::Random({64, 64}, rank, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cp.Reconstruct());
  }
}
BENCHMARK(BM_CpReconstruct)->Arg(2)->Arg(8);

void BM_TrReconstruct(benchmark::State& state) {
  const int64_t rank = state.range(0);
  Rng rng(5);
  tn::TrFormat tr = tn::TrFormat::Random({64, 64}, rank, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tr.Reconstruct());
  }
}
BENCHMARK(BM_TrReconstruct)->Arg(2)->Arg(8);

void BM_TrMatrix(benchmark::State& state) {
  const int64_t rank = state.range(0);
  Rng rng(6);
  Tensor a = RandomNormal(Shape{rank, 64, rank}, rng);
  Tensor b = RandomNormal(Shape{rank, 64, rank}, rng);
  Tensor c = RandomNormal(Shape{rank, rank}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tn::TrMatrix(a, b, c).ValueOrDie());
  }
}
BENCHMARK(BM_TrMatrix)->Arg(2)->Arg(4)->Arg(8);

void BM_ConvLoraForward(benchmark::State& state) {
  const int64_t rank = state.range(0);
  Rng rng(7);
  core::AdapterOptions opts;
  opts.kind = core::AdapterKind::kLora;
  opts.rank = rank;
  opts.seed = 1;
  core::TnAdapter lora(
      std::make_unique<nn::Conv2d>(16, 16, 3, 1, 1, false, rng), opts);
  Tensor x = RandomNormal(Shape{4, 16, 16, 16}, rng);
  autograd::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lora.Forward(nn::Variable(x, false)));
  }
}
BENCHMARK(BM_ConvLoraForward)->Arg(2)->Arg(8);

void BM_MetaLoraCpForward(benchmark::State& state) {
  const int64_t rank = state.range(0);
  Rng rng(8);
  core::AdapterOptions opts;
  opts.kind = core::AdapterKind::kMetaLoraCp;
  opts.rank = rank;
  opts.feature_dim = 32;
  opts.seed = 1;
  core::TnAdapter meta(
      std::make_unique<nn::Linear>(64, 64, true, rng), opts);
  Tensor x = RandomNormal(Shape{32, 64}, rng);
  Tensor feats = RandomNormal(Shape{32, 32}, rng);
  autograd::NoGradGuard guard;
  meta.SetFeatures(nn::Variable(feats, false));
  for (auto _ : state) {
    benchmark::DoNotOptimize(meta.Forward(nn::Variable(x, false)));
  }
}
BENCHMARK(BM_MetaLoraCpForward)->Arg(2)->Arg(8);

void BM_MetaLoraTrForward(benchmark::State& state) {
  const int64_t rank = state.range(0);
  Rng rng(9);
  core::AdapterOptions opts;
  opts.kind = core::AdapterKind::kMetaLoraTr;
  opts.rank = rank;
  opts.feature_dim = 32;
  opts.seed = 1;
  core::MetaLoraTrLinear meta(
      std::make_unique<nn::Linear>(64, 64, true, rng), opts);
  Tensor x = RandomNormal(Shape{32, 64}, rng);
  Tensor feats = RandomNormal(Shape{32, 32}, rng);
  autograd::NoGradGuard guard;
  meta.SetFeatures(nn::Variable(feats, false));
  for (auto _ : state) {
    benchmark::DoNotOptimize(meta.Forward(nn::Variable(x, false)));
  }
}
BENCHMARK(BM_MetaLoraTrForward)->Arg(2)->Arg(8);

void BM_MultiHeadAttention(benchmark::State& state) {
  const int64_t tokens = state.range(0);
  Rng rng(11);
  nn::MultiHeadSelfAttention attn(32, 4, rng);
  Tensor x = RandomNormal(Shape{4, tokens, 32}, rng);
  autograd::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(nn::Variable(x, false)));
  }
}
BENCHMARK(BM_MultiHeadAttention)->Arg(16)->Arg(64);

void BM_CpAlsFit(benchmark::State& state) {
  const int64_t rank = state.range(0);
  Rng rng(12);
  tn::CpFormat truth = tn::CpFormat::Random({24, 24}, rank, rng);
  Tensor x = truth.Reconstruct();
  for (auto _ : state) {
    tn::CpAlsOptions opts;
    opts.seed = 13;
    opts.max_iterations = 25;
    benchmark::DoNotOptimize(tn::CpAls(x, rank, opts));
  }
}
BENCHMARK(BM_CpAlsFit)->Arg(2)->Arg(4);

void BM_TuckerReconstruct(benchmark::State& state) {
  const int64_t rank = state.range(0);
  Rng rng(14);
  tn::TuckerFormat t =
      tn::TuckerFormat::Random({32, 32, 8}, {rank, rank, 4}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Reconstruct());
  }
}
BENCHMARK(BM_TuckerReconstruct)->Arg(2)->Arg(8);

void BM_ResNetForwardBackward(benchmark::State& state) {
  nn::ResNetConfig c;
  c.base_width = 8;
  c.num_classes = 6;
  c.seed = 1;
  nn::ResNet net(c);
  net.SetTraining(true);
  Rng rng(10);
  Tensor x = RandomNormal(Shape{8, 3, 16, 16}, rng);
  std::vector<int64_t> labels = {0, 1, 2, 3, 4, 5, 0, 1};
  for (auto _ : state) {
    net.ZeroGrad();
    nn::Variable loss = autograd::SoftmaxCrossEntropy(
        net.Forward(nn::Variable(x, false)), labels);
    ML_CHECK_OK(autograd::Backward(loss));
    benchmark::DoNotOptimize(loss.value().flat(0));
  }
}
BENCHMARK(BM_ResNetForwardBackward);

}  // namespace

BENCHMARK_MAIN();
