// Determinism contract of the data-parallel trainer (train_loop.cc):
// trained parameters must be bit-identical for any num_replicas > 1, any
// lane schedule (fixed, elastic, serial fallback), and any run — the
// numerical program is fixed by grad_shards, never by scheduling.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>

#include "common/thread_pool.h"
#include "core/feature_extractor.h"
#include "core/inject.h"
#include "data/task_suite.h"
#include "eval/trainer.h"
#include "nn/activation.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace eval {
namespace {

data::MultiTaskDataset TinyData(int64_t count, uint64_t seed) {
  data::ImageSpec spec{3, 16, 16};
  data::SyntheticImageGenerator gen(spec, 3);
  return data::MakeBaseDataset(gen, count, seed);
}

nn::ResNetConfig TinyResNet() {
  nn::ResNetConfig c;
  c.base_width = 4;
  c.num_classes = 3;
  c.seed = 1;
  return c;
}

TrainOptions ReplicaOptions(int num_replicas, ThreadPool* pool) {
  TrainOptions o;
  o.epochs = 2;
  o.batch_size = 16;
  o.seed = 11;
  o.num_replicas = num_replicas;
  o.replica_pool = pool;
  return o;
}

// Pre-trains a fresh tiny ResNet (deterministic init from the config seed)
// and returns its full state — parameters AND buffers, so BatchNorm running
// stats are part of the bit-identity check.
std::map<std::string, Tensor> PretrainedState(const TrainOptions& options,
                                              int64_t count = 32) {
  Backbone bb = MakeResNetBackbone(TinyResNet());
  data::MultiTaskDataset data = TinyData(count, 2);
  auto stats = PretrainBackbone(bb, data, options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return bb.module->StateDict();
}

void ExpectBitIdentical(const std::map<std::string, Tensor>& a,
                        const std::map<std::string, Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, t] : a) {
    auto it = b.find(name);
    ASSERT_NE(it, b.end()) << name;
    EXPECT_TRUE(AllClose(t, it->second, 0.0f, 0.0f)) << name << " differs";
  }
}

TEST(TrainReplicaTest, LaneCountInvarianceBitwise) {
  // The core acceptance criterion: N=2 and N=4 train bit-identical
  // parameters because both execute the same grad_shards-wide program.
  ThreadPool pool(3);
  auto n2 = PretrainedState(ReplicaOptions(2, &pool));
  auto n4 = PretrainedState(ReplicaOptions(4, &pool));
  ExpectBitIdentical(n2, n4);
}

TEST(TrainReplicaTest, DeterministicAcrossRuns) {
  ThreadPool pool(3);
  auto run1 = PretrainedState(ReplicaOptions(4, &pool));
  auto run2 = PretrainedState(ReplicaOptions(4, &pool));
  ExpectBitIdentical(run1, run2);
}

TEST(TrainReplicaTest, SerialFallbackMatchesThreadedPool) {
  // Zero workers makes ForkJoinReplicas run lanes inline on the caller —
  // same per-lane instruction streams, so same trained bits.
  ThreadPool threaded(3);
  ThreadPool serial(0);
  auto a = PretrainedState(ReplicaOptions(4, &threaded));
  auto b = PretrainedState(ReplicaOptions(4, &serial));
  ExpectBitIdentical(a, b);
}

TEST(TrainReplicaTest, ElasticScheduleMatchesFixedLanes) {
  // Lanes joining/leaving between steps moves shards across threads but
  // never moves a float: elastic == fixed, bit for bit.
  ThreadPool pool(3);
  TrainOptions fixed = ReplicaOptions(4, &pool);
  TrainOptions elastic = ReplicaOptions(2, &pool);
  elastic.elastic_lanes = [](int64_t step) {
    return static_cast<int>(step % 3) + 1;  // 1, 2, 3, 1, 2, ...
  };
  auto a = PretrainedState(fixed);
  auto b = PretrainedState(elastic);
  ExpectBitIdentical(a, b);
}

TEST(TrainReplicaTest, ShortBatchLeavesTrailingShardsEmpty) {
  // 18 samples with batch_size 16: the last batch has 2 rows split over 8
  // shards, so 6 shards sit the step out. Must still be lane-invariant.
  ThreadPool pool(3);
  auto n2 = PretrainedState(ReplicaOptions(2, &pool), /*count=*/18);
  auto n4 = PretrainedState(ReplicaOptions(4, &pool), /*count=*/18);
  ExpectBitIdentical(n2, n4);
}

TEST(TrainReplicaTest, ReportedLossesAreLaneInvariant) {
  ThreadPool pool(3);
  Backbone bb2 = MakeResNetBackbone(TinyResNet());
  Backbone bb4 = MakeResNetBackbone(TinyResNet());
  data::MultiTaskDataset data = TinyData(32, 2);
  auto s2 = PretrainBackbone(bb2, data, ReplicaOptions(2, &pool));
  auto s4 = PretrainBackbone(bb4, data, ReplicaOptions(4, &pool));
  ASSERT_TRUE(s2.ok() && s4.ok());
  ASSERT_EQ(s2->epoch_losses.size(), s4->epoch_losses.size());
  for (size_t i = 0; i < s2->epoch_losses.size(); ++i) {
    EXPECT_EQ(s2->epoch_losses[i], s4->epoch_losses[i]);
  }
  EXPECT_EQ(s2->final_train_accuracy, s4->final_train_accuracy);
}

TEST(TrainReplicaTest, AdaptMetaLoraLaneInvariance) {
  // The adaptation path exercises the per-replica binding slots: every
  // shard extracts and binds its own conditioning features concurrently
  // through one shared adapter tree.
  ThreadPool pool(3);
  data::MultiTaskDataset data = TinyData(32, 2);

  // Frozen extractor, shared by both runs (read-only under adaptation).
  Backbone extractor_net = MakeResNetBackbone(TinyResNet());
  extractor_net.module->SetTraining(false);
  extractor_net.module->SetTrainable(false);
  core::FeatureExtractor extractor(extractor_net.forward_features,
                                   extractor_net.feature_dim);

  auto adapt_state = [&](int num_replicas) {
    Backbone bb = MakeResNetBackbone(TinyResNet());
    core::AdapterOptions aopts;
    aopts.kind = core::AdapterKind::kMetaLoraCp;
    aopts.rank = 2;
    aopts.feature_dim = extractor.feature_dim();
    auto injection = core::InjectAdapters(bb.module.get(), aopts);
    EXPECT_TRUE(injection.ok()) << injection.status().ToString();
    AdaptContext ctx;
    ctx.injection = injection.value();
    ctx.extractor = &extractor;
    TrainOptions o = ReplicaOptions(num_replicas, &pool);
    o.epochs = 1;
    auto stats = AdaptModel(bb, data, o, &ctx);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return bb.module->StateDict();
  };

  ExpectBitIdentical(adapt_state(2), adapt_state(4));
}

TEST(TrainReplicaTest, ConditioningTableTrainsLikePerShardExtract) {
  // Each shard binds its rows of the conditioning table. The reference
  // leaves the extractor out of the context and extracts inside
  // forward_logits instead, which the loop calls once per shard on the
  // shard's own context: the per-shard Extract the table replaced.
  ThreadPool pool(3);
  data::MultiTaskDataset data = TinyData(36, 2);  // last batch: 4 rows

  Backbone extractor_net = MakeResNetBackbone(TinyResNet());
  extractor_net.module->SetTraining(false);
  extractor_net.module->SetTrainable(false);
  core::FeatureExtractor extractor(extractor_net.forward_features,
                                   extractor_net.feature_dim);

  auto adapt = [&](bool per_shard_extract, std::vector<double>* losses) {
    Backbone bb = MakeResNetBackbone(TinyResNet());
    core::AdapterOptions aopts;
    aopts.kind = core::AdapterKind::kMetaLoraCp;
    aopts.rank = 2;
    aopts.feature_dim = extractor.feature_dim();
    auto injection = core::InjectAdapters(bb.module.get(), aopts);
    EXPECT_TRUE(injection.ok()) << injection.status().ToString();
    AdaptContext ctx;
    ctx.injection = injection.value();
    if (per_shard_extract) {
      bb.forward_logits = [&ctx, &extractor,
                           forward = bb.forward_logits](const nn::Variable& x) {
        ctx.injection.BindFeatures(nn::Variable(extractor.Extract(x.value()),
                                                /*requires_grad=*/false));
        return forward(x);
      };
    } else {
      ctx.extractor = &extractor;
    }
    auto stats = AdaptModel(bb, data, ReplicaOptions(2, &pool), &ctx);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    *losses = stats->epoch_losses;
    return bb.module->StateDict();
  };

  std::vector<double> table_losses, ref_losses;
  const auto table_state = adapt(false, &table_losses);
  const auto ref_state = adapt(true, &ref_losses);
  EXPECT_EQ(table_losses, ref_losses);
  ASSERT_EQ(ref_state.size(), table_state.size());
  for (const auto& [name, t] : ref_state) {
    const Tensor& got = table_state.at(name);
    ASSERT_EQ(t.shape(), got.shape()) << name;
    EXPECT_EQ(std::memcmp(t.data(), got.data(),
                          sizeof(float) * static_cast<size_t>(t.numel())),
              0)
        << name << " differs";
  }
}

TEST(TrainReplicaTest, AdaptNewFamiliesLaneInvariance) {
  // Same lane-invariance contract for the shared-core (LoTR) and
  // tensor-train families. kLotr is the interesting one: every layer in a
  // geometry group backpropagates into the same shared down/up factors, so
  // the cross-replica reduction must fold those gradients identically
  // regardless of lane count. The meta variants additionally route
  // per-replica conditioning through the shared MappingNet.
  ThreadPool pool(3);
  data::MultiTaskDataset data = TinyData(32, 2);

  Backbone extractor_net = MakeResNetBackbone(TinyResNet());
  extractor_net.module->SetTraining(false);
  extractor_net.module->SetTrainable(false);
  core::FeatureExtractor extractor(extractor_net.forward_features,
                                   extractor_net.feature_dim);

  auto adapt_state = [&](core::AdapterKind kind, int num_replicas) {
    Backbone bb = MakeResNetBackbone(TinyResNet());
    core::AdapterOptions aopts;
    aopts.kind = kind;
    aopts.rank = 2;
    aopts.feature_dim = extractor.feature_dim();
    auto injection = core::InjectAdapters(bb.module.get(), aopts);
    EXPECT_TRUE(injection.ok()) << injection.status().ToString();
    AdaptContext ctx;
    ctx.injection = injection.value();
    ctx.extractor = &extractor;
    TrainOptions o = ReplicaOptions(num_replicas, &pool);
    o.epochs = 1;
    auto stats = AdaptModel(bb, data, o, &ctx);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return bb.module->StateDict();
  };

  for (core::AdapterKind kind :
       {core::AdapterKind::kLotr, core::AdapterKind::kMetaLotr,
        core::AdapterKind::kTt, core::AdapterKind::kMetaTt}) {
    SCOPED_TRACE(static_cast<int>(kind));
    ExpectBitIdentical(adapt_state(kind, 2), adapt_state(kind, 4));
  }
}

TEST(TrainReplicaTest, ReplicatedPathRejectsActiveDropout) {
  struct DropWrapper : nn::Module {
    DropWrapper() : Module("DropWrapper") {
      RegisterModule("drop", std::make_unique<nn::Dropout>(0.5f, 7));
    }
    nn::Variable Forward(const nn::Variable& x) override { return x; }
  };
  Backbone bb;
  bb.module = std::make_unique<DropWrapper>();
  bb.forward_logits = [](const nn::Variable& x) { return x; };
  data::MultiTaskDataset data = TinyData(16, 2);
  TrainOptions o;
  o.epochs = 1;
  o.num_replicas = 2;
  EXPECT_EQ(PretrainBackbone(bb, data, o).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TrainReplicaTest, RejectsBadReplicaOptions) {
  Backbone bb = MakeResNetBackbone(TinyResNet());
  data::MultiTaskDataset data = TinyData(16, 2);
  TrainOptions o;
  o.epochs = 1;
  o.num_replicas = 0;
  EXPECT_EQ(PretrainBackbone(bb, data, o).status().code(),
            StatusCode::kInvalidArgument);
  o.num_replicas = 2;
  o.grad_shards = 1;
  EXPECT_EQ(PretrainBackbone(bb, data, o).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TrainReplicaTest, GradShardsChangesTheNumericalProgram) {
  // grad_shards is part of the numerical program — sanity-check that the
  // contract means what it says by confirming a different grid really does
  // train different bits (mean-of-shard-means in float is order-sensitive).
  ThreadPool pool(3);
  TrainOptions a = ReplicaOptions(2, &pool);
  TrainOptions b = ReplicaOptions(2, &pool);
  b.grad_shards = 4;
  auto sa = PretrainedState(a);
  auto sb = PretrainedState(b);
  bool any_diff = false;
  for (const auto& [name, t] : sa) {
    if (!AllClose(t, sb.at(name), 0.0f, 0.0f)) any_diff = true;
  }
  EXPECT_TRUE(any_diff)
      << "different shard grids produced identical bits; the determinism "
         "tests above would be vacuous";
}

}  // namespace
}  // namespace eval
}  // namespace metalora
