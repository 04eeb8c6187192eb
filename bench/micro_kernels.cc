// google-benchmark micro-kernels backing every experiment binary: matmul,
// the GEMM tiers, conv2d, tensor contraction, CP/TR reconstruction, adapter
// forward passes, and the autograd round trip.
#include <benchmark/benchmark.h>

#include <iterator>
#include <string>
#include <vector>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "core/tn_adapter.h"
#include "eval/knn.h"
#include "nn/attention.h"
#include "nn/resnet.h"
#include "tensor/conv_ops.h"
#include "tensor/gemm.h"
#include "tensor/matmul.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"
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

// The GEMM tiers on the library's hot shapes: LoRA rank-R projections run
// as x·Wᵀ (like autograd::Linear), a conv-as-GEMM panel W·cols, KNN
// distance blocks Q·Rᵀ (m past one kGemmNC column block), a weight
// gradient gᵀ·x (trans_a), square controls, the memory-bound serving shape
// (6 activation rows against a 2048×2048 frozen weight) and an odd tail.
struct GemmShape {
  const char* name;
  int64_t n, k, m;
  bool trans_a, trans_b;
};

constexpr GemmShape kGemmShapes[] = {
    {"square_256", 256, 256, 256, false, false},
    {"square_512", 512, 512, 512, false, false},
    {"lora_down_r8", 64, 1024, 8, false, true},
    {"lora_up_r8", 64, 8, 1024, false, true},
    {"lora_down_r1", 64, 1024, 1, false, true},
    {"conv3x3_gemm", 64, 576, 196, false, false},
    {"knn_dist", 128, 64, 2048, false, true},
    {"backward_dW_transA", 256, 64, 256, true, false},
    {"serve_linear_6x2048", 6, 2048, 2048, false, true},
    {"odd_tail_7x131x61", 7, 131, 61, false, true},
};

// The serial reference and the packed engine.
constexpr const char* kGemmTiers[] = {"reference", "fp32"};

void GemmArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"shape", "tier"});
  for (int64_t s = 0; s < static_cast<int64_t>(std::size(kGemmShapes)); ++s) {
    for (int64_t t = 0; t < static_cast<int64_t>(std::size(kGemmTiers));
         ++t) {
      b->Args({s, t});
    }
  }
}

// C = op(A)·op(B) at one shape and tier, reported as GF/s (2·n·k·m per
// iteration). Asserts nothing: the tiers' bytes are tensor_gemm_test's
// contract.
void BM_Gemm(benchmark::State& state) {
  const GemmShape& s = kGemmShapes[state.range(0)];
  const std::string tier = kGemmTiers[state.range(1)];
  Rng rng(static_cast<uint64_t>(s.n * 131 + s.k * 17 + s.m));
  const Tensor a =
      RandomNormal(s.trans_a ? Shape{s.k, s.n} : Shape{s.n, s.k}, rng);
  const Tensor b =
      RandomNormal(s.trans_b ? Shape{s.m, s.k} : Shape{s.k, s.m}, rng);
  Tensor c{Shape{s.n, s.m}};
  const auto gemm = tier == "reference" ? GemmReference : GemmPacked;
  for (auto _ : state) {
    gemm(a.data(), s.trans_a, b.data(), s.trans_b, c.data(), s.n, s.k, s.m,
         /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(s.name) + " " + tier);
  // Printed as GFLOP=<value>/s: a rate of 1e9 flops per second.
  state.counters["GFLOP"] = benchmark::Counter(
      2e-9 * static_cast<double>(s.n * s.k * s.m),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Gemm)->Apply(GemmArgs);

// The conv layers of the end-to-end `adapt` workload (bench/suite): a
// ResNet-8 at base width 8 on 16×16 images, batch 32, with a rank-2
// MetaLoRA-CP adapter on every 3×3 conv. Args are (in, out, plane): the
// stage convs 3→8 and 8→8 at 16², 16→16 at 8² and 32→32 at 4², and the
// adapters' rank-2 down convs 8→2 and 32→2.
void ConvShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"in", "out", "hw"});
  for (const auto& a : {std::vector<int64_t>{3, 8, 16}, {8, 8, 16},
                        {16, 16, 8}, {32, 32, 4}, {8, 2, 16}, {32, 2, 4}}) {
    b->Args(a);
  }
}

struct ConvInputs {
  Tensor x, w, gy;
  ConvGeom g{3, 3, 1, 1};
};

ConvInputs MakeConvInputs(const benchmark::State& state) {
  const int64_t in = state.range(0), out = state.range(1);
  const int64_t hw = state.range(2);
  Rng rng(2);
  ConvInputs c;
  c.x = RandomNormal(Shape{32, in, hw, hw}, rng);
  c.w = RandomNormal(Shape{out, in, 3, 3}, rng);
  c.gy = RandomNormal(Shape{32, out, hw, hw}, rng);
  return c;
}

// The forward shapes: every ConvShapes conv alone (rank 0), and the four
// stage convs stacked with their adapter's rank-2 down conv D, the
// [W; D] product (O + 2 rows) an AdaptedConv2d runs in `adapt`.
void ConvForwardShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"in", "out", "hw", "rank"});
  for (const auto& a : {std::vector<int64_t>{3, 8, 16, 0}, {8, 8, 16, 0},
                        {16, 16, 8, 0}, {32, 32, 4, 0}, {8, 2, 16, 0},
                        {32, 2, 4, 0}, {3, 8, 16, 2}, {8, 8, 16, 2},
                        {16, 16, 8, 2}, {32, 32, 4, 2}}) {
    b->Args(a);
  }
}

void BM_Conv2dForward(benchmark::State& state) {
  const ConvInputs c = MakeConvInputs(state);
  const int64_t rank = state.range(3);
  Rng rng(4);
  const Tensor d = RandomNormal(Shape{rank, state.range(0), 3, 3}, rng);
  const Tensor* weights[] = {&c.w, &d};
  for (auto _ : state) {
    if (rank == 0) {
      Tensor y = Conv2dForward(c.x, c.w, Tensor(), c.g);
      benchmark::DoNotOptimize(y.data());
    } else {
      Tensor y{c.gy.shape()};
      Tensor h{Shape{32, rank, c.gy.dim(2), c.gy.dim(3)}};
      Tensor* outs[] = {&y, &h};
      Conv2dForwardInto(c.x, weights, Tensor(), c.g, outs);
      benchmark::DoNotOptimize(y.data());
      benchmark::DoNotOptimize(h.data());
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Conv2dForward)->Apply(ConvForwardShapes);

// Input and weight gradients, as for a trainable conv; a frozen base conv
// skips the weight half.
void BM_Conv2dBackward(benchmark::State& state) {
  const ConvInputs c = MakeConvInputs(state);
  for (auto _ : state) {
    Tensor gx = Tensor::Zeros(c.x.shape()), gw = Tensor::Zeros(c.w.shape());
    Conv2dBackward(c.x, c.w, c.gy, c.g, &gx, &gw, nullptr);
    benchmark::DoNotOptimize(gx.data());
    benchmark::DoNotOptimize(gw.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Conv2dBackward)->Apply(ConvShapes);

// The adapter's real backward mix (AdaptedConv2d at stage 1): the frozen
// 8→8 base stacked with the rank-R down-projection D, input gradient for
// both, and a weight gradient for D alone. Args are (rank): 2 as in the
// `adapt` workload, 8 for a wider chain.
void BM_Conv2dBackwardFrozenBase(benchmark::State& state) {
  const int64_t rank = state.range(0);
  Rng rng(3);
  const ConvGeom g{3, 3, 1, 1};
  const Tensor x = RandomNormal(Shape{32, 8, 16, 16}, rng);
  const Tensor w = RandomNormal(Shape{8, 8, 3, 3}, rng);
  const Tensor d = RandomNormal(Shape{rank, 8, 3, 3}, rng);
  const Tensor gy = RandomNormal(Shape{32, 8, 16, 16}, rng);
  const Tensor gh = RandomNormal(Shape{32, rank, 16, 16}, rng);
  const Tensor* weights[] = {&w, &d};
  const Tensor* grad_outputs[] = {&gy, &gh};
  for (auto _ : state) {
    Tensor gx = Tensor::Zeros(x.shape()), gd = Tensor::Zeros(d.shape());
    Tensor* grad_weights[] = {nullptr, &gd};
    Conv2dBackward(x, weights, grad_outputs, g, &gx, grad_weights, nullptr);
    benchmark::DoNotOptimize(gx.data());
    benchmark::DoNotOptimize(gd.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Conv2dBackwardFrozenBase)->ArgName("rank")->Arg(2)->Arg(8);

// ReLU's backward at the stage-1 activation shape [32, 8, 16, 16]: the
// gradient g · mask(x > 0) of one Relu node (its forward is untimed).
void BM_ReluBackward(benchmark::State& state) {
  Rng rng(4);
  const Tensor x = RandomNormal(Shape{32, 8, 16, 16}, rng);
  const Tensor g = RandomNormal(x.shape(), rng);
  for (auto _ : state) {
    state.PauseTiming();
    autograd::Variable xv(x, /*requires_grad=*/true);
    autograd::Variable y = autograd::Relu(xv);
    state.ResumeTiming();
    ML_CHECK_OK(autograd::BackwardWithGrad(y, g));
    benchmark::DoNotOptimize(xv.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_ReluBackward);

// One training step of a conv adapter at an `adapt` workload shape:
// C → C channels, 3×3, side × side, batch 32, with x needing its gradient
// as inside the network. Forward, sum-of-squares loss and backward through
// the frozen base conv and the chain. Args are (kind, rank, C, side):
// MetaLoRA-CP (D, the generated seed, U and the mapping net) at stage 1
// (8 at 16²), stage 2 (16 at 8²) and stage 3 (32 at 4²), where the
// rank-thin products' share of the step grows, and at stage 1 the branch
// sums over four branches, Multi-LoRA kSum (rank split to 1 per branch,
// weighted by learned scales) and MoE-LoRA (rank 2 per expert, gated),
// each one AdaptedConv2d over the stacked branches.
void BM_AdaptedConvStep(benchmark::State& state) {
  const auto kind = static_cast<core::AdapterKind>(state.range(0));
  const int64_t ch = state.range(2), side = state.range(3);
  Rng rng(16);
  core::AdapterOptions opts;
  opts.kind = kind;
  opts.rank = state.range(1);
  opts.feature_dim = 32;
  opts.num_tasks = 4;
  opts.seed = 1;
  core::TnAdapter adapter(
      std::make_unique<nn::Conv2d>(ch, ch, 3, 1, 1, false, rng), opts);
  for (auto& np : adapter.NamedParameters()) {
    if (np.name.rfind("lora_b", 0) == 0) {
      FillNormal(np.variable->mutable_value(), rng, 0.0f, 0.5f);
    }
  }
  const Tensor x = RandomNormal(Shape{32, ch, side, side}, rng);
  adapter.SetFeatures(nn::Variable(RandomNormal(Shape{32, 32}, rng), false));
  state.SetLabel(core::AdapterKindName(kind));
  for (auto _ : state) {
    adapter.ZeroGrad();
    nn::Variable xv(x, /*requires_grad=*/true);
    nn::Variable y = adapter.Forward(xv);
    ML_CHECK_OK(autograd::Backward(autograd::SumAll(autograd::Mul(y, y))));
    benchmark::DoNotOptimize(xv.grad().data());
  }
}
BENCHMARK(BM_AdaptedConvStep)
    ->ArgNames({"kind", "rank", "ch", "side"})
    ->Args({static_cast<int64_t>(core::AdapterKind::kMetaLoraCp), 2, 8, 16})
    ->Args({static_cast<int64_t>(core::AdapterKind::kMetaLoraCp), 8, 8, 16})
    ->Args({static_cast<int64_t>(core::AdapterKind::kMetaLoraCp), 2, 16, 8})
    ->Args({static_cast<int64_t>(core::AdapterKind::kMetaLoraCp), 2, 32, 4})
    ->Args({static_cast<int64_t>(core::AdapterKind::kMultiLora), 2, 8, 16})
    ->Args({static_cast<int64_t>(core::AdapterKind::kMoeLora), 2, 8, 16});

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
  core::TnAdapter meta(std::make_unique<nn::Linear>(64, 64, true, rng), opts);
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

// The KNN head of the `serve_image` workload (bench/suite): queries
// against a 1024×32 reference bank at k = 5. One query is a served
// request, 256 one query block of the Table-I evaluation.
void BM_KnnClassify(benchmark::State& state) {
  const int64_t queries = state.range(0);
  Rng rng(15);
  Tensor bank = RandomNormal(Shape{1024, 32}, rng);
  Tensor query = RandomNormal(Shape{queries, 32}, rng);
  const std::vector<int64_t> query_labels(static_cast<size_t>(queries), 0);
  std::vector<int64_t> bank_labels(1024);
  for (size_t i = 0; i < bank_labels.size(); ++i) {
    bank_labels[i] = static_cast<int64_t>(i % 6);
  }
  for (auto _ : state) {
    auto r = eval::KnnClassify(bank, bank_labels, query, query_labels, {.k = 5});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * queries);
}
BENCHMARK(BM_KnnClassify)->ArgName("queries")->Arg(1)->Arg(256);

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
