// Step-arena backward: serving a training step's whole graph — forward
// intermediates, saved tensors, backward scratch — from a generation-tagged
// WorkspaceArena must be byte-identical to heap allocation, pin leaf
// gradients so they survive the generation bump, and stop growing once the
// first generation has sized the blocks.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/graph.h"
#include "autograd/ops.h"
#include "autograd/runtime_context.h"
#include "common/rng.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace autograd {
namespace {

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.numel())),
            0);
}

// A small MLP trained for `steps` plain-SGD steps on deterministic data.
// Returns every per-step leaf gradient followed by the final parameters.
std::vector<Tensor> RunTrainingSteps(bool arena_mode, int steps) {
  WorkspaceArena arena;
  RuntimeContext ctx;
  std::optional<RuntimeContextScope> scope;
  if (arena_mode) {
    ctx.set_arena(&arena);
    ctx.set_arena_serves_grad(true);
    scope.emplace(&ctx);
  }

  Rng prng(7);
  Variable w1(RandomUniform(Shape{12, 10}, prng, -0.5f, 0.5f), true);
  Variable b1(RandomUniform(Shape{12}, prng, -0.1f, 0.1f), true);
  Variable w2(RandomUniform(Shape{4, 12}, prng, -0.5f, 0.5f), true);
  Variable b2(RandomUniform(Shape{4}, prng, -0.1f, 0.1f), true);
  std::vector<Variable> params = {w1, b1, w2, b2};

  std::vector<Tensor> out;
  for (int s = 0; s < steps; ++s) {
    if (arena_mode) arena.NextGeneration();
    Rng drng(100 + static_cast<uint64_t>(s));
    Variable x(RandomUniform(Shape{6, 10}, drng, -1.0f, 1.0f), false);
    Tensor target = RandomUniform(Shape{6, 4}, drng, -1.0f, 1.0f);

    Variable h = Relu(Linear(x, w1, b1));
    Variable loss = MseLoss(Linear(h, w2, b2), target);
    for (Variable& p : params) p.ZeroGrad();
    EXPECT_TRUE(Backward(loss).ok());
    for (Variable& p : params) {
      out.push_back(p.grad().Clone());
      AxpyInPlace(p.mutable_value(), -0.1f, p.grad());
    }
  }
  for (Variable& p : params) out.push_back(p.value().Clone());
  return out;
}

TEST(ArenaBackward, GradsAndParamsBitIdenticalToHeap) {
  constexpr int kSteps = 4;
  std::vector<Tensor> heap = RunTrainingSteps(/*arena_mode=*/false, kSteps);
  std::vector<Tensor> arena = RunTrainingSteps(/*arena_mode=*/true, kSteps);
  ASSERT_EQ(heap.size(), arena.size());
  for (size_t i = 0; i < heap.size(); ++i) {
    ExpectBitIdentical(heap[i], arena[i]);
  }
}

// Once the step arena is warm, a training step — forward, saved tensors
// and backward scratch — goes to the heap allocator less often than the
// same step in plain grad mode; only pinned leaf gradients stay off it.
TEST(ArenaBackward, WarmStepArenaMakesFewerHeapAllocations) {
  auto heap_allocations = [](bool arena_mode) {
    WorkspaceArena arena;
    RuntimeContext ctx;
    if (arena_mode) {
      ctx.set_arena(&arena);
      ctx.set_arena_serves_grad(true);
    }
    RuntimeContextScope scope(&ctx);
    Rng rng(5);
    Variable w1(RandomUniform(Shape{12, 10}, rng, -0.5f, 0.5f), true);
    Variable w2(RandomUniform(Shape{4, 12}, rng, -0.5f, 0.5f), true);
    Variable x(RandomUniform(Shape{6, 10}, rng, -1.0f, 1.0f), false);
    Tensor target = RandomUniform(Shape{6, 4}, rng, -1.0f, 1.0f);
    auto step = [&] {
      arena.NextGeneration();
      w1.ZeroGrad();
      w2.ZeroGrad();
      Variable y = Linear(Relu(Linear(x, w1, Variable())), w2, Variable());
      EXPECT_TRUE(Backward(MseLoss(y, target)).ok());
    };
    step();  // sizes the arena's blocks
    const int64_t heap0 = Tensor::HeapAllocations();
    for (int s = 0; s < 3; ++s) step();
    return Tensor::HeapAllocations() - heap0;
  };
  EXPECT_LT(heap_allocations(/*arena_mode=*/true),
            heap_allocations(/*arena_mode=*/false));
}

// A warm conv-adapter step under the step arena: a trainable plain conv
// feeding an adapted conv (frozen base, trainable D, seed and U). Every
// conv gradient, input and weight, comes from the arena, so the step's
// only heap allocations are the pinned leaf gradients and Backward's
// all-ones seed.
TEST(ArenaBackward, WarmConvAdapterStepTakesNoConvGradientFromTheHeap) {
  WorkspaceArena arena;
  RuntimeContext ctx;
  ctx.set_arena(&arena);
  ctx.set_arena_serves_grad(true);
  RuntimeContextScope scope(&ctx);

  Rng rng(21);
  const ConvGeom g{3, 3, 1, 1};
  Variable x(RandomUniform(Shape{2, 3, 6, 6}, rng, -1.0f, 1.0f), false);
  Variable w0(RandomUniform(Shape{4, 3, 3, 3}, rng, -0.5f, 0.5f), true);
  Variable w(RandomUniform(Shape{4, 4, 3, 3}, rng, -0.5f, 0.5f), false);
  Variable down(RandomUniform(Shape{2, 4, 3, 3}, rng, -0.5f, 0.5f), true);
  Variable seed(RandomUniform(Shape{2, 2}, rng, -1.0f, 1.0f), true);
  Variable up(RandomUniform(Shape{4, 2}, rng, -0.5f, 0.5f), true);
  std::vector<Variable> params = {w0, down, seed, up};
  auto step = [&] {
    arena.NextGeneration();
    for (Variable& p : params) p.ZeroGrad();
    Variable h = Conv2d(x, w0, Variable(), g);
    Variable y = AdaptedConv2d(h, w, Variable(), down, seed, Variable(), up,
                               0.5f, g);
    EXPECT_TRUE(Backward(SumAll(Mul(y, y))).ok());
  };
  step();  // sizes the arena's blocks
  const int64_t heap0 = Tensor::HeapAllocations();
  const int64_t pins0 = ctx.pin_count();
  step();
  const int64_t pins = ctx.pin_count() - pins0;
  EXPECT_EQ(pins, static_cast<int64_t>(params.size()));
  EXPECT_EQ(Tensor::HeapAllocations() - heap0, pins + 1);
}

TEST(ArenaBackward, GradcheckPassesUnderStepArena) {
  WorkspaceArena arena;
  RuntimeContext ctx;
  ctx.set_arena(&arena);
  ctx.set_arena_serves_grad(true);
  RuntimeContextScope scope(&ctx);

  Rng rng(3);
  GradCheckReport r = CheckGradients(
      [](const std::vector<Variable>& v) {
        return SumAll(Mul(Matmul(v[0], v[1]), Matmul(v[0], v[1])));
      },
      {RandomUniform(Shape{3, 5}, rng, -1.0f, 1.0f),
       RandomUniform(Shape{5, 4}, rng, -1.0f, 1.0f)});
  EXPECT_TRUE(r.passed) << "max rel err " << r.max_rel_error;
}

TEST(ArenaBackward, PinnedLeafGradsSurviveGenerationBump) {
  WorkspaceArena arena;
  RuntimeContext ctx;
  ctx.set_arena(&arena);
  ctx.set_arena_serves_grad(true);
  RuntimeContextScope scope(&ctx);

  Rng rng(9);
  Variable w(RandomUniform(Shape{8, 6}, rng, -1.0f, 1.0f), true);
  Variable x1(RandomUniform(Shape{4, 6}, rng, -1.0f, 1.0f), false);
  arena.NextGeneration();
  ASSERT_TRUE(Backward(SumAll(Square(Linear(x1, w, Variable())))).ok());

  // `first` shares the pinned gradient's buffer; `snapshot` is a copy. If
  // the gradient were arena-backed, the next generation's allocations
  // would clobber `first` and the comparison below would fail.
  Tensor first = w.grad();
  Tensor snapshot = first.Clone();

  arena.NextGeneration();
  Variable x2(RandomUniform(Shape{4, 6}, rng, -2.0f, 2.0f), false);
  w.ZeroGrad();
  ASSERT_TRUE(Backward(SumAll(Square(Linear(x2, w, Variable())))).ok());

  ExpectBitIdentical(first, snapshot);
}

TEST(ArenaBackward, CountersBookArenaServiceAndPins) {
  WorkspaceArena arena;
  RuntimeContext ctx;
  ctx.set_arena(&arena);
  ctx.set_arena_serves_grad(true);
  RuntimeContextScope scope(&ctx);

  Rng rng(11);
  Variable w(RandomUniform(Shape{8, 6}, rng, -1.0f, 1.0f), true);
  Variable b(RandomUniform(Shape{8}, rng, -1.0f, 1.0f), true);
  Variable x(RandomUniform(Shape{4, 6}, rng, -1.0f, 1.0f), false);

  arena.NextGeneration();
  ctx.ResetStats();
  const int64_t served_before = ctx.arena_served();
  Variable loss = SumAll(Relu(Linear(x, w, b)));
  const int64_t served_forward = ctx.arena_served();
  EXPECT_GT(served_forward, served_before);

  w.ZeroGrad();
  b.ZeroGrad();
  ASSERT_TRUE(Backward(loss).ok());
  EXPECT_GT(ctx.arena_served(), served_forward);  // backward also on arena
  EXPECT_EQ(ctx.pin_count(), 2);                  // one pin per leaf grad
  EXPECT_GT(ctx.pin_bytes(), 0);
  EXPECT_GT(ctx.ArenaHitRate(), 0.5);
}

TEST(ArenaBackward, FootprintStabilizesAcrossGenerations) {
  WorkspaceArena arena;
  RuntimeContext ctx;
  ctx.set_arena(&arena);
  ctx.set_arena_serves_grad(true);
  RuntimeContextScope scope(&ctx);

  Rng rng(13);
  Variable w1(RandomUniform(Shape{16, 10}, rng, -0.5f, 0.5f), true);
  Variable w2(RandomUniform(Shape{4, 16}, rng, -0.5f, 0.5f), true);
  Variable x(RandomUniform(Shape{8, 10}, rng, -1.0f, 1.0f), false);

  auto one_step = [&] {
    arena.NextGeneration();
    w1.ZeroGrad();
    w2.ZeroGrad();
    ASSERT_TRUE(Backward(SumAll(
        Linear(Relu(Linear(x, w1, Variable())), w2, Variable()))).ok());
  };

  one_step();
  one_step();
  const int64_t misses_warm = arena.block_misses();
  const int64_t capacity_warm = arena.capacity_bytes();
  for (int s = 0; s < 3; ++s) one_step();
  // The identical allocation sequence replays inside the warm capacity:
  // no new blocks, no new heap traffic.
  EXPECT_EQ(arena.block_misses(), misses_warm);
  EXPECT_EQ(arena.capacity_bytes(), capacity_warm);
  EXPECT_GT(arena.block_hits(), 0);
  EXPECT_EQ(arena.generation(), 5u);
}

}  // namespace
}  // namespace autograd
}  // namespace metalora
