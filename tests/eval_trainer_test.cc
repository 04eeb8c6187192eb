#include "eval/trainer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "core/feature_extractor.h"
#include "data/dataloader.h"
#include "data/task_suite.h"
#include "optim/adam.h"
#include "optim/grad_clip.h"
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

TEST(BackboneFactoryTest, Names) {
  EXPECT_EQ(BackboneKindName(BackboneKind::kResNet), "ResNet");
  EXPECT_EQ(BackboneKindName(BackboneKind::kMlpMixer), "MLP-Mixer");
  EXPECT_EQ(BackboneKindName(BackboneKind::kTransformer), "ViT");
}

TEST(BackboneFactoryTest, AllKindsProduceWorkingBackbones) {
  std::vector<Backbone> backbones;
  backbones.push_back(MakeResNetBackbone(TinyResNet()));
  {
    nn::MlpMixerConfig c;
    c.image_size = 16;
    c.patch_size = 4;
    c.hidden_dim = 16;
    c.token_mlp_dim = 8;
    c.channel_mlp_dim = 32;
    c.num_blocks = 1;
    c.num_classes = 3;
    c.seed = 1;
    backbones.push_back(MakeMixerBackbone(c));
  }
  {
    nn::TransformerConfig c;
    c.image_size = 16;
    c.patch_size = 4;
    c.dim = 16;
    c.num_heads = 2;
    c.mlp_dim = 32;
    c.num_blocks = 1;
    c.num_classes = 3;
    c.seed = 1;
    backbones.push_back(MakeTransformerBackbone(c));
  }
  autograd::NoGradGuard g;
  for (auto& bb : backbones) {
    bb.module->SetTraining(false);
    nn::Variable x(Tensor::Ones(Shape{2, 3, 16, 16}), false);
    EXPECT_EQ(bb.forward_logits(x).shape(), Shape({2, 3}));
    EXPECT_EQ(bb.forward_features(x).shape(), Shape({2, bb.feature_dim}));
    EXPECT_GT(bb.feature_dim, 0);
  }
}

TEST(TrainerTest, RejectsBadOptions) {
  Backbone bb = MakeResNetBackbone(TinyResNet());
  data::MultiTaskDataset data = TinyData(16, 2);
  TrainOptions bad;
  bad.epochs = 0;
  EXPECT_FALSE(PretrainBackbone(bb, data, bad).ok());
  bad.epochs = 1;
  bad.batch_size = 0;
  EXPECT_FALSE(PretrainBackbone(bb, data, bad).ok());
}

TEST(TrainerTest, AdaptRequiresContext) {
  Backbone bb = MakeResNetBackbone(TinyResNet());
  data::MultiTaskDataset data = TinyData(16, 3);
  TrainOptions opts;
  opts.epochs = 1;
  EXPECT_EQ(AdaptModel(bb, data, opts, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TrainerTest, AdaptWithFullyFrozenModelFails) {
  Backbone bb = MakeResNetBackbone(TinyResNet());
  bb.module->SetTrainable(false);
  data::MultiTaskDataset data = TinyData(16, 4);
  TrainOptions opts;
  opts.epochs = 1;
  AdaptContext ctx;  // empty injection: nothing trainable
  EXPECT_EQ(AdaptModel(bb, data, opts, &ctx).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TrainerTest, AdaptationKeepsBatchNormStatsFrozen) {
  // During adapter fine-tuning the backbone stays in eval mode, so running
  // statistics must not drift.
  Backbone bb = MakeResNetBackbone(TinyResNet());
  data::MultiTaskDataset base = TinyData(32, 5);
  TrainOptions popts;
  popts.epochs = 1;
  popts.batch_size = 16;
  ASSERT_TRUE(PretrainBackbone(bb, base, popts).ok());

  core::AdapterOptions aopts;
  aopts.kind = core::AdapterKind::kLora;
  aopts.rank = 2;
  auto injection = core::InjectAdapters(bb.module.get(), aopts);
  ASSERT_TRUE(injection.ok());

  // Snapshot running stats.
  std::map<std::string, Tensor> stats_before;
  for (const auto& [name, t] : bb.module->StateDict()) {
    if (name.find("buf:running") != std::string::npos) {
      stats_before[name] = t;
    }
  }
  ASSERT_FALSE(stats_before.empty());

  AdaptContext ctx;
  ctx.injection = injection.value();
  TrainOptions adapt_opts;
  adapt_opts.epochs = 1;
  adapt_opts.batch_size = 16;
  ASSERT_TRUE(AdaptModel(bb, base, adapt_opts, &ctx).ok());

  for (const auto& [name, t] : bb.module->StateDict()) {
    auto it = stats_before.find(name);
    if (it != stats_before.end()) {
      EXPECT_TRUE(AllClose(t, it->second, 0.0f, 0.0f))
          << name << " drifted during adaptation";
    }
  }
}

TEST(TrainerTest, PretrainingUpdatesBatchNormStats) {
  Backbone bb = MakeResNetBackbone(TinyResNet());
  std::map<std::string, Tensor> before;
  for (const auto& [name, t] : bb.module->StateDict()) {
    if (name.find("buf:running_mean") != std::string::npos) before[name] = t;
  }
  data::MultiTaskDataset base = TinyData(32, 6);
  TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 16;
  ASSERT_TRUE(PretrainBackbone(bb, base, opts).ok());
  bool changed = false;
  for (const auto& [name, t] : bb.module->StateDict()) {
    auto it = before.find(name);
    if (it != before.end() && !AllClose(t, it->second, 0.0f, 0.0f)) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(TrainerTest, ExtractFeaturesIsDeterministic) {
  Backbone bb = MakeResNetBackbone(TinyResNet());
  data::MultiTaskDataset data = TinyData(20, 7);
  Tensor a = ExtractDatasetFeatures(bb, data, 8, nullptr);
  Tensor b = ExtractDatasetFeatures(bb, data, 8, nullptr);
  EXPECT_TRUE(AllClose(a, b, 0.0f, 0.0f));
  // Batch size must not change the result.
  Tensor c = ExtractDatasetFeatures(bb, data, 5, nullptr);
  EXPECT_TRUE(AllClose(a, c, 1e-5f, 1e-5f));
}

void ExpectSameBytes(const Tensor& want, const Tensor& got,
                     const std::string& what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        sizeof(float) * static_cast<size_t>(want.numel())),
            0)
      << what << " differs";
}

// A frozen tiny ResNet behind a FeatureExtractor: what MetaLoRA
// conditions on.
struct FrozenExtractor {
  FrozenExtractor()
      : net(MakeResNetBackbone(TinyResNet())),
        extractor(net.forward_features, net.feature_dim) {
    net.module->SetTraining(false);
    net.module->SetTrainable(false);
  }
  Backbone net;
  core::FeatureExtractor extractor;
};

// The conditioning table rests on this: a row's features do not depend on
// the batch it is embedded in.
TEST(FeatureExtractorTest, ExtractAllRowsEqualExtractOfShuffledRows) {
  FrozenExtractor fx;
  data::MultiTaskDataset data = TinyData(23, 12);
  const Tensor table = fx.extractor.ExtractAll(data.images, 8);
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < data.size(); r += 2) rows.push_back(r);
  Rng rng(13);
  rng.Shuffle(rows);
  const Tensor feats = fx.extractor.Extract(GatherRows(data.images, rows));
  ExpectSameBytes(GatherRows(table, rows), feats, "ExtractAll rows");
}

// MetaLoRA-CP injected into a fresh tiny ResNet, conditioned on `fx`.
AdaptContext MetaLoraContext(Backbone& bb, const FrozenExtractor& fx) {
  core::AdapterOptions aopts;
  aopts.kind = core::AdapterKind::kMetaLoraCp;
  aopts.rank = 2;
  aopts.feature_dim = fx.extractor.feature_dim();
  auto injection = core::InjectAdapters(bb.module.get(), aopts);
  EXPECT_TRUE(injection.ok()) << injection.status().ToString();
  AdaptContext ctx;
  ctx.injection = injection.value();
  ctx.extractor = &fx.extractor;
  return ctx;
}

// The single-replica adaptation loop as it ran before the conditioning
// table: every batch's features are extracted on the spot. Returns the
// per-epoch mean losses.
std::vector<double> AdaptExtractingPerBatch(Backbone& bb,
                                            const data::MultiTaskDataset& data,
                                            const TrainOptions& o,
                                            const AdaptContext& ctx) {
  bb.module->SetTraining(false);
  std::vector<nn::Variable> trainable;
  for (auto* v : bb.module->TrainableParameters()) trainable.push_back(*v);
  optim::AdamOptions adam_opts;
  adam_opts.lr = o.lr;
  adam_opts.weight_decay = o.weight_decay;
  optim::Adam adam(trainable, adam_opts);
  data::DataLoader loader(data, o.batch_size, /*shuffle=*/true, o.seed);
  std::vector<double> losses;
  for (int epoch = 0; epoch < o.epochs; ++epoch) {
    double loss_acc = 0.0;
    int64_t seen = 0;
    for (int64_t b = 0; b < loader.num_batches(); ++b) {
      const data::Batch batch = loader.GetBatch(b);
      ctx.injection.BindFeatures(nn::Variable(
          ctx.extractor->Extract(batch.images), /*requires_grad=*/false));
      ctx.injection.BindTaskIds(batch.task_ids);
      const nn::Variable loss = autograd::SoftmaxCrossEntropy(
          bb.forward_logits(nn::Variable(batch.images, false)), batch.labels);
      bb.module->ZeroGrad();
      EXPECT_TRUE(autograd::Backward(loss).ok());
      optim::ClipGradNorm(trainable, o.clip_norm);
      adam.Step();
      loss_acc += loss.value().flat(0) * static_cast<double>(batch.size());
      seen += batch.size();
    }
    loader.Reshuffle();
    losses.push_back(loss_acc / static_cast<double>(seen));
  }
  return losses;
}

// AdaptModel embeds each training row once and gathers the table per
// batch; that must train the same bytes as extracting every batch.
TEST(TrainerTest, ConditioningTableTrainsLikePerBatchExtract) {
  FrozenExtractor fx;
  data::MultiTaskDataset data = TinyData(40, 14);  // last batch: 8 rows
  TrainOptions o;
  o.epochs = 2;
  o.batch_size = 16;
  o.seed = 15;

  Backbone bb = MakeResNetBackbone(TinyResNet());
  AdaptContext ctx = MetaLoraContext(bb, fx);
  auto stats = AdaptModel(bb, data, o, &ctx);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  Backbone ref = MakeResNetBackbone(TinyResNet());
  const std::vector<double> ref_losses =
      AdaptExtractingPerBatch(ref, data, o, MetaLoraContext(ref, fx));

  EXPECT_EQ(stats->epoch_losses, ref_losses);
  const auto want = ref.module->StateDict();
  const auto got = bb.module->StateDict();
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [name, t] : want) {
    ASSERT_TRUE(got.count(name)) << name;
    ExpectSameBytes(t, got.at(name), name);
  }
}

// Oracle-routed Multi-LoRA adapted on rows of task 0 alone: branch 1 never
// enters the graph, so Adam (with weight decay) leaves its bytes as they
// were, while branch 0 trains.
TEST(TrainerTest, AbsentBranchParametersStayUnchanged) {
  Backbone bb = MakeResNetBackbone(TinyResNet());
  data::MultiTaskDataset data = TinyData(16, 9);  // every row is task 0
  core::AdapterOptions aopts;
  aopts.kind = core::AdapterKind::kMultiLora;
  aopts.multi_lora_mode = core::MultiLoraMode::kOracleRouting;
  aopts.rank = 2;
  aopts.num_tasks = 2;
  auto injection = core::InjectAdapters(bb.module.get(), aopts);
  ASSERT_TRUE(injection.ok()) << injection.status().ToString();
  const auto before = bb.module->StateDict();

  AdaptContext ctx;
  ctx.injection = injection.value();
  TrainOptions o;
  o.epochs = 1;
  o.batch_size = 16;
  o.weight_decay = 1e-2;
  ASSERT_TRUE(AdaptModel(bb, data, o, &ctx).ok());

  const auto after = bb.module->StateDict();
  auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  int absent = 0, trained = 0;
  for (const auto& [name, t] : before) {
    if (ends_with(name, "/lora_a1") || ends_with(name, "/lora_b1")) {
      ExpectSameBytes(t, after.at(name), name);
      ++absent;
    }
    if (ends_with(name, "/lora_b0") && !AllClose(t, after.at(name), 0, 0)) {
      ++trained;
    }
  }
  EXPECT_GT(absent, 0);
  EXPECT_GT(trained, 0);
}

// The Mixer's token-wise adapted linears see [B·S, D] rows while the
// trainer binds B task ids: oracle routing aligns the task mask to the
// rows as the seed is. One step on rows of tasks 0 and 1 out of 3 trains
// both present branches and leaves the absent one's bytes as they were.
TEST(TrainerTest, OracleMultiLoraAdaptsTheMixer) {
  nn::MlpMixerConfig mc;
  mc.image_size = 16;
  mc.patch_size = 4;
  mc.hidden_dim = 16;
  mc.token_mlp_dim = 8;
  mc.channel_mlp_dim = 32;
  mc.num_blocks = 1;
  mc.num_classes = 3;
  mc.seed = 1;
  Backbone bb = MakeMixerBackbone(mc);
  data::MultiTaskDataset data = TinyData(16, 10);
  for (size_t i = 0; i < data.task_ids.size(); ++i) {
    data.task_ids[i] = static_cast<int64_t>(i % 2);
  }
  core::AdapterOptions aopts;
  aopts.kind = core::AdapterKind::kMultiLora;
  aopts.multi_lora_mode = core::MultiLoraMode::kOracleRouting;
  aopts.rank = 2;
  aopts.num_tasks = 3;
  auto injection = core::InjectAdapters(bb.module.get(), aopts);
  ASSERT_TRUE(injection.ok()) << injection.status().ToString();
  const auto before = bb.module->StateDict();

  AdaptContext ctx;
  ctx.injection = injection.value();
  TrainOptions o;
  o.epochs = 1;
  o.batch_size = 16;
  o.weight_decay = 1e-2;
  ASSERT_TRUE(AdaptModel(bb, data, o, &ctx).ok());

  const auto after = bb.module->StateDict();
  auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  int absent = 0, trained0 = 0, trained1 = 0;
  for (const auto& [name, t] : before) {
    if (ends_with(name, "/lora_a2") || ends_with(name, "/lora_b2")) {
      ExpectSameBytes(t, after.at(name), name);
      ++absent;
    }
    const bool moved = !AllClose(t, after.at(name), 0, 0);
    if (ends_with(name, "/lora_b0") && moved) ++trained0;
    if (ends_with(name, "/lora_b1") && moved) ++trained1;
  }
  EXPECT_GT(absent, 0);
  EXPECT_GT(trained0, 0);
  EXPECT_GT(trained1, 0);
}

TEST(TrainerTest, TrainStatsArePopulated) {
  Backbone bb = MakeResNetBackbone(TinyResNet());
  data::MultiTaskDataset data = TinyData(32, 8);
  TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 16;
  auto stats = PretrainBackbone(bb, data, opts);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch_losses.size(), 2u);
  EXPECT_GT(stats->seconds, 0.0);
  EXPECT_GE(stats->final_train_accuracy, 0.0);
  EXPECT_LE(stats->final_train_accuracy, 1.0);
}

}  // namespace
}  // namespace eval
}  // namespace metalora
