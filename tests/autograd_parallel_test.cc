// Thread use of the autograd layer. Dataset-scale eval blocks
// (ParallelApplyNoGrad) are the only autograd code that schedules pool
// tasks; their results must not depend on whether the blocks ran on the
// pool or inline. Adapter forwards are plain serial code and schedule
// nothing themselves.
#include "autograd/parallel.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "core/tn_adapter.h"
#include "eval/knn.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "tensor/random_init.h"

namespace metalora {
namespace autograd {
namespace {

constexpr int64_t kFeatDim = 6;

core::AdapterOptions Opts(core::AdapterKind kind) {
  core::AdapterOptions o;
  o.kind = kind;
  o.rank = 3;
  o.alpha = 3.0f;
  o.feature_dim = kFeatDim;
  o.mapping_hidden = 8;
  o.num_tasks = 2;
  o.seed = 11;
  return o;
}

std::unique_ptr<nn::Linear> BaseLinear() {
  Rng rng(2);
  return std::make_unique<nn::Linear>(6, 4, true, rng);
}

TEST(AdapterForwardTest, SchedulesNoPoolTasks) {
  if (GlobalThreadPool().num_threads() == 0) {
    GTEST_SKIP() << "zero-worker pool: nothing could be scheduled anyway";
  }
  // Seven adapter forwards, each a base path beside a delta path. Every
  // GEMM and conv kernel runs on its caller, so any scheduled task would
  // come from the adapter forward itself.
  std::vector<std::unique_ptr<core::Adapter>> adapters;
  adapters.push_back(std::make_unique<core::TnAdapter>(
      BaseLinear(), Opts(core::AdapterKind::kLora)));
  adapters.push_back(std::make_unique<core::TnAdapter>(
      BaseLinear(), Opts(core::AdapterKind::kMultiLora)));
  adapters.push_back(std::make_unique<core::TnAdapter>(
      BaseLinear(), Opts(core::AdapterKind::kMetaLoraCp)));
  adapters.push_back(std::make_unique<core::TnAdapter>(
      BaseLinear(), Opts(core::AdapterKind::kMetaLoraTr)));
  adapters.push_back(std::make_unique<core::TnAdapter>(
      BaseLinear(), Opts(core::AdapterKind::kMetaLotr)));
  adapters.push_back(std::make_unique<core::TnAdapter>(
      BaseLinear(), Opts(core::AdapterKind::kMetaTt)));
  Rng rng(3);
  auto conv = std::make_unique<core::TnAdapter>(
      std::make_unique<nn::Conv2d>(1, 4, 3, 1, 1, false, rng),
      Opts(core::AdapterKind::kMultiLora));

  Variable x(RandomNormal(Shape{2, 6}, rng), false);
  Variable image(RandomNormal(Shape{2, 1, 5, 5}, rng), false);
  Variable feats(RandomNormal(Shape{2, kFeatDim}, rng), false);
  auto expect_no_tasks = [&](const char* mode) {
    SCOPED_TRACE(mode);
    for (auto& adapter : adapters) {
      adapter->SetFeatures(feats);
      const int64_t before = ThreadPool::TotalTasksScheduled();
      Variable y = adapter->Forward(x);
      EXPECT_EQ(ThreadPool::TotalTasksScheduled(), before)
          << core::AdapterKindName(adapter->kind());
      EXPECT_EQ(y.dim(1), 4);
    }
    const int64_t before = ThreadPool::TotalTasksScheduled();
    Variable y = conv->Forward(image);
    EXPECT_EQ(ThreadPool::TotalTasksScheduled(), before)
        << core::AdapterKindName(conv->kind());
    EXPECT_EQ(y.dim(1), 4);
  };
  expect_no_tasks("grad");
  NoGradGuard no_grad;
  expect_no_tasks("no-grad");
}

TEST(ParallelApplyNoGradTest, BlocksCoverRangeWithPrivateContexts) {
  ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  ParallelApplyNoGrad(
      0, 100, 7,
      [&](int64_t lo, int64_t hi, RuntimeContext& ctx) {
        EXPECT_FALSE(ctx.grad_enabled());
        ASSERT_NE(ctx.arena(), nullptr);
        // The block's scratch arena is usable and Reset between blocks.
        Tensor scratch = ctx.arena()->Allocate(Shape{4});
        EXPECT_EQ(scratch.flat(0), 0.0f);
        for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
      },
      &pool);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelApplyNoGradTest, KnnClassifyMatchesSerial) {
  Rng rng(12);
  const int64_t m = 400, n = 700, d = 8;  // > kQueryBlock queries
  Tensor ref = RandomNormal(Shape{m, d}, rng);
  Tensor query = RandomNormal(Shape{n, d}, rng);
  std::vector<int64_t> ref_labels, query_labels;
  for (int64_t i = 0; i < m; ++i) ref_labels.push_back(i % 5);
  for (int64_t i = 0; i < n; ++i) query_labels.push_back(i % 5);
  eval::KnnOptions o;
  o.k = 7;

  // On the main thread the query blocks fan out onto the global pool
  // (when the machine has more than one core); inside a replica lane they
  // run inline, one after another.
  int64_t before = ThreadPool::TotalTasksScheduled();
  auto pooled = eval::KnnClassify(ref, ref_labels, query, query_labels, o);
  ASSERT_TRUE(pooled.ok());
  if (GlobalThreadPool().num_threads() > 0) {
    EXPECT_GT(ThreadPool::TotalTasksScheduled(), before);
  }

  before = ThreadPool::TotalTasksScheduled();
  Result<eval::KnnResult> inline_run = Status::Internal("lane did not run");
  GlobalThreadPool().ForkJoinReplicas(1, [&](int) {
    inline_run = eval::KnnClassify(ref, ref_labels, query, query_labels, o);
  });
  ASSERT_TRUE(inline_run.ok());
  EXPECT_EQ(ThreadPool::TotalTasksScheduled(), before);

  EXPECT_EQ(pooled->predictions, inline_run->predictions);
  EXPECT_EQ(pooled->accuracy, inline_run->accuracy);
}

}  // namespace
}  // namespace autograd
}  // namespace metalora
