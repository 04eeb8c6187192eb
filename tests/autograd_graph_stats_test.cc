#include <gtest/gtest.h>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "autograd/runtime_context.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace autograd {
namespace {

// y = mean((a * b) + a) over [2, 3]: Mul, Add, MeanAll -> 3 nodes, and only
// Mul saves tensors (its two inputs, 6 floats each).
Variable SmallGraph(const Variable& a, const Variable& b) {
  return MeanAll(Add(Mul(a, b), a));
}

TEST(GraphStatsTest, CountsNodesAndSavedBytes) {
  Variable a(Tensor::Ones(Shape{2, 3}), /*requires_grad=*/true);
  Variable b(Tensor::Ones(Shape{2, 3}), /*requires_grad=*/true);
  Variable y = SmallGraph(a, b);

  GraphStats stats = CollectGraphStats(y);
  EXPECT_EQ(stats.node_count, 3);
  EXPECT_EQ(stats.per_op_counts.at("Mul"), 1);
  EXPECT_EQ(stats.per_op_counts.at("Add"), 1);
  EXPECT_EQ(stats.per_op_counts.at("MeanAll"), 1);
  EXPECT_EQ(stats.saved_tensor_count, 2);
  EXPECT_EQ(stats.saved_bytes, 2 * 6 * static_cast<int64_t>(sizeof(float)));
  EXPECT_NE(stats.ToString().find("nodes=3"), std::string::npos);
}

TEST(GraphStatsTest, DiamondGraphCountsSharedNodeOnce) {
  Variable a(Tensor::Ones(Shape{4}), /*requires_grad=*/true);
  Variable sq = Square(a);
  Variable y = SumAll(Add(sq, sq));  // sq reachable along two edges

  GraphStats stats = CollectGraphStats(y);
  EXPECT_EQ(stats.node_count, 3);
  EXPECT_EQ(stats.per_op_counts.at("Square"), 1);
}

TEST(GraphStatsTest, LeafOnlyGraphIsEmpty) {
  Variable a(Tensor::Ones(Shape{4}), /*requires_grad=*/true);
  GraphStats stats = CollectGraphStats(a);
  EXPECT_EQ(stats.node_count, 0);
  EXPECT_EQ(stats.saved_bytes, 0);
}

TEST(RuntimeContextTest, RecordsNodesWhileGradEnabled) {
  RuntimeContext ctx;
  RuntimeContextScope scope(&ctx);
  Variable a(Tensor::Ones(Shape{2, 3}), /*requires_grad=*/true);
  Variable b(Tensor::Ones(Shape{2, 3}), /*requires_grad=*/true);
  Variable y = SmallGraph(a, b);
  EXPECT_EQ(ctx.nodes_recorded(), 3);
  EXPECT_EQ(ctx.saved_bytes_recorded(), CollectGraphStats(y).saved_bytes);
}

TEST(RuntimeContextTest, NoGradRecordsNothing) {
  RuntimeContext ctx;
  RuntimeContextScope scope(&ctx);
  Variable a(Tensor::Ones(Shape{2, 3}), /*requires_grad=*/true);
  Variable b(Tensor::Ones(Shape{2, 3}), /*requires_grad=*/true);
  {
    NoGradGuard guard;
    Variable y = SmallGraph(a, b);
    EXPECT_EQ(y.producer(), nullptr);
    EXPECT_EQ(CollectGraphStats(y).node_count, 0);
    EXPECT_FLOAT_EQ(y.value().flat(0), 2.0f);  // 1*1 + 1, averaged
  }
  EXPECT_EQ(ctx.nodes_recorded(), 0);
  EXPECT_EQ(ctx.saved_bytes_recorded(), 0);
  EXPECT_TRUE(ctx.grad_enabled());  // guard restored the previous mode
}

TEST(RuntimeContextTest, ArenaFastPathAvoidsHeap) {
  WorkspaceArena arena;
  RuntimeContext ctx;
  ctx.set_grad_enabled(false);
  ctx.set_arena(&arena);
  RuntimeContextScope scope(&ctx);

  Variable a(Tensor::Ones(Shape{8, 8}), /*requires_grad=*/false);
  Variable b(Tensor::Ones(Shape{8, 8}), /*requires_grad=*/false);
  // Warm up so the arena owns enough capacity for one forward.
  SmallGraph(a, b);
  arena.Reset();

  const int64_t heap0 = Tensor::HeapAllocations();
  Variable y = SmallGraph(a, b);
  EXPECT_EQ(Tensor::HeapAllocations(), heap0);  // all intermediates in arena
  EXPECT_EQ(y.producer(), nullptr);
  EXPECT_FLOAT_EQ(y.value().flat(0), 2.0f);
  EXPECT_GT(arena.used_bytes(), 0);
}

// The GEMM dispatch counter books one per GEMM facade call, with or
// without gradients, merges from child contexts and clears on ResetStats.
TEST(RuntimeContextTest, GemmDispatchCounterCountsFacadeCalls) {
  RuntimeContext ctx;
  RuntimeContextScope scope(&ctx);
  Variable x(Tensor::Ones(Shape{3, 4}), /*requires_grad=*/true);
  Variable w(Tensor::Ones(Shape{5, 4}), /*requires_grad=*/true);
  Linear(x, w, Variable());
  EXPECT_EQ(ctx.gemm_dispatches(), 1);
  {
    NoGradGuard guard;
    Matmul(x, Permute(w, {1, 0}));
    Linear(x, w, Variable());
  }
  EXPECT_EQ(ctx.gemm_dispatches(), 3);
  RuntimeContext child;
  child.RecordGemmDispatch();
  child.RecordGemmDispatch();
  ctx.MergeChildStats(child);
  EXPECT_EQ(ctx.gemm_dispatches(), 5);
  ctx.ResetStats();
  EXPECT_EQ(ctx.gemm_dispatches(), 0);
}

TEST(WorkspaceArenaTest, ResetReclaimsCapacity) {
  WorkspaceArena arena(/*initial_floats=*/16);
  Tensor t1 = arena.Allocate(Shape{4});
  Tensor t2 = arena.Allocate(Shape{4});
  EXPECT_EQ(arena.used_bytes(), 8 * static_cast<int64_t>(sizeof(float)));
  EXPECT_EQ(arena.alloc_count(), 2);
  t1.Fill(3.0f);
  EXPECT_EQ(t2.flat(0), 0.0f);  // allocations are distinct and zeroed

  arena.Reset();
  EXPECT_EQ(arena.used_bytes(), 0);
  Tensor t3 = arena.Allocate(Shape{4});
  EXPECT_EQ(t3.flat(0), 0.0f);  // recycled space is re-zeroed
  EXPECT_EQ(arena.capacity_bytes(), 16 * static_cast<int64_t>(sizeof(float)));
}

TEST(WorkspaceArenaTest, GrowsBeyondInitialBlock) {
  WorkspaceArena arena(/*initial_floats=*/4);
  Tensor small = arena.Allocate(Shape{2});
  Tensor big = arena.Allocate(Shape{100});
  big.Fill(1.0f);
  EXPECT_EQ(small.numel(), 2);
  EXPECT_EQ(big.numel(), 100);
  EXPECT_GE(arena.capacity_bytes(),
            104 * static_cast<int64_t>(sizeof(float)));
  EXPECT_GE(arena.peak_bytes(), arena.used_bytes());
}

TEST(TensorSliceRowsTest, ViewsShareStorage) {
  Tensor t{Shape{4, 3}};
  for (int64_t i = 0; i < t.numel(); ++i) t.flat(i) = static_cast<float>(i);
  Tensor mid = t.SliceRows(1, 3);
  EXPECT_EQ(mid.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(mid.flat(0), 3.0f);
  EXPECT_FLOAT_EQ(mid.flat(5), 8.0f);
  mid.flat(0) = -1.0f;  // writes through to the parent
  EXPECT_FLOAT_EQ(t.flat(3), -1.0f);
  EXPECT_EQ(t.SliceRows(2, 2).numel(), 0);
}

}  // namespace
}  // namespace autograd
}  // namespace metalora
