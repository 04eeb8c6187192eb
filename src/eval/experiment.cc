#include "eval/experiment.h"

#include <algorithm>

#include "common/logging.h"
#include "data/task_suite.h"
#include "eval/knn.h"
#include "eval/metrics.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace eval {

namespace {

using core::AdapterKind;

Backbone BuildBackbone(const ExperimentConfig& c, BackboneKind kind,
                       uint64_t seed) {
  if (kind == BackboneKind::kTransformer) {
    nn::TransformerConfig tc;
    tc.in_channels = 3;
    tc.image_size = c.image_size;
    tc.patch_size = c.vit_patch;
    tc.dim = c.vit_dim;
    tc.num_heads = c.vit_heads;
    tc.mlp_dim = c.vit_dim * 2;
    tc.num_blocks = c.vit_blocks;
    tc.num_classes = c.num_classes;
    tc.seed = seed;
    return MakeTransformerBackbone(tc);
  }
  if (kind == BackboneKind::kResNet) {
    nn::ResNetConfig rc;
    rc.in_channels = 3;
    rc.base_width = c.resnet_width;
    rc.blocks_per_stage = c.resnet_blocks;
    rc.num_classes = c.num_classes;
    rc.seed = seed;
    return MakeResNetBackbone(rc);
  }
  nn::MlpMixerConfig mc;
  mc.in_channels = 3;
  mc.image_size = c.image_size;
  mc.patch_size = c.mixer_patch;
  mc.hidden_dim = c.mixer_hidden;
  mc.token_mlp_dim = c.mixer_hidden / 2;
  mc.channel_mlp_dim = c.mixer_hidden * 2;
  mc.num_blocks = c.mixer_blocks;
  mc.num_classes = c.num_classes;
  mc.seed = seed;
  return MakeMixerBackbone(mc);
}

/// Everything one seed shares across methods: data and pre-trained weights.
struct SeedEnv {
  std::unique_ptr<data::SyntheticImageGenerator> gen;
  std::unique_ptr<data::TaskSuite> suite;
  data::MultiTaskDataset train;
  data::MultiTaskDataset test;
  std::map<std::string, Tensor> backbone_state;
  std::map<std::string, Tensor> extractor_state;  // ResNet extractor weights
  bool has_extractor = false;
};

Status PrepareSeedEnv(const ExperimentConfig& c, uint64_t seed,
                      bool need_extractor, SeedEnv* env) {
  data::ImageSpec spec{3, c.image_size, c.image_size};
  env->gen = std::make_unique<data::SyntheticImageGenerator>(spec,
                                                             c.num_classes);
  env->suite = std::make_unique<data::TaskSuite>(c.num_tasks, seed + 101);
  env->train = data::MakeMultiTaskDataset(*env->gen, *env->suite,
                                          c.per_task_train, seed + 202);
  env->test = data::MakeMultiTaskDataset(*env->gen, *env->suite,
                                         c.per_task_test, seed + 303);
  data::MultiTaskDataset base =
      data::MakeBaseDataset(*env->gen, c.pretrain_samples, seed + 404);

  // Pre-train the backbone on the base distribution.
  Backbone bb = BuildBackbone(c, c.backbone, seed + 505);
  TrainOptions popt = c.pretrain;
  popt.seed = seed + 606;
  popt.verbose = c.verbose;
  ML_ASSIGN_OR_RETURN(TrainStats pstats, PretrainBackbone(bb, base, popt));
  if (c.verbose) {
    ML_LOG(Info) << "pretrained " << BackboneKindName(c.backbone)
                 << " train acc " << pstats.final_train_accuracy;
  }
  env->backbone_state = bb.module->StateDict();

  // The conditioning extractor is always a pre-trained ResNet (paper
  // §III.B.1). When the adapted backbone is itself that ResNet, reuse its
  // weights; otherwise pre-train a separate ResNet on the same corpus.
  if (need_extractor) {
    if (c.backbone == BackboneKind::kResNet) {
      env->extractor_state = env->backbone_state;
    } else {
      Backbone ex = BuildBackbone(c, BackboneKind::kResNet, seed + 707);
      TrainOptions eopt = c.pretrain;
      eopt.seed = seed + 808;
      ML_ASSIGN_OR_RETURN(TrainStats estats, PretrainBackbone(ex, base, eopt));
      (void)estats;
      env->extractor_state = ex.module->StateDict();
    }
    env->has_extractor = true;
  }
  return Status::OK();
}

// Methods whose adapters consume frozen-extractor features per batch.
bool IsMetaKind(AdapterKind kind) { return core::AdapterKindNeedsFeatures(kind); }

Result<SingleRunResult> AdaptAndScore(const ExperimentConfig& c,
                                      const SeedEnv& env, AdapterKind kind,
                                      uint64_t seed,
                                      int64_t exclude_task_from_adapt) {
  // Fresh backbone loaded with the pre-trained weights.
  Backbone bb = BuildBackbone(c, c.backbone, seed + 11);
  ML_RETURN_IF_ERROR(bb.module->LoadStateDict(env.backbone_state));

  // Conditioning extractor (MetaLoRA only), frozen and in eval mode.
  Backbone extractor_net;
  std::unique_ptr<core::FeatureExtractor> extractor;
  if (IsMetaKind(kind)) {
    if (!env.has_extractor) {
      return Status::FailedPrecondition("seed env lacks extractor weights");
    }
    extractor_net = BuildBackbone(c, BackboneKind::kResNet, seed + 12);
    ML_RETURN_IF_ERROR(extractor_net.module->LoadStateDict(env.extractor_state));
    extractor_net.module->SetTraining(false);
    extractor_net.module->SetTrainable(false);
    extractor = std::make_unique<core::FeatureExtractor>(
        extractor_net.forward_features, extractor_net.feature_dim);
  }

  core::AdapterOptions opts;
  opts.kind = kind;
  opts.rank = c.rank;
  opts.alpha = c.alpha;
  opts.num_tasks = c.num_tasks;
  opts.multi_lora_mode = c.multi_lora_oracle ? core::MultiLoraMode::kOracleRouting
                                             : core::MultiLoraMode::kSum;
  opts.feature_dim = extractor ? extractor->feature_dim() : 0;
  opts.mapping_hidden = c.mapping_hidden;
  opts.seed = seed + 13;

  ML_ASSIGN_OR_RETURN(core::InjectionResult injection,
                      core::InjectAdapters(bb.module.get(), opts));

  AdaptContext ctx;
  ctx.injection = injection;
  ctx.extractor = extractor.get();

  SingleRunResult result;
  result.total_params = bb.module->ParamCount();
  result.trainable_params = bb.module->TrainableParamCount();

  if (kind != AdapterKind::kNone) {
    const data::MultiTaskDataset* adapt_ds = &env.train;
    data::MultiTaskDataset filtered;
    if (exclude_task_from_adapt >= 0) {
      filtered = data::ExcludeTask(env.train, exclude_task_from_adapt);
      adapt_ds = &filtered;
    }
    TrainOptions aopt = c.adapt;
    aopt.seed = seed + 14;
    aopt.verbose = c.verbose;
    ML_ASSIGN_OR_RETURN(TrainStats astats,
                        AdaptModel(bb, *adapt_ds, aopt, &ctx));
    result.adapt_seconds = astats.seconds;
  }

  // KNN protocol: reference features from the train split, queries from the
  // held-out split, both through the adapted backbone.
  const int64_t eval_batch = c.adapt.batch_size;
  Tensor ref = ExtractDatasetFeatures(bb, env.train, eval_batch, &ctx);
  Tensor query = ExtractDatasetFeatures(bb, env.test, eval_batch, &ctx);

  for (int k : c.knn_ks) {
    KnnOptions ko;
    ko.k = k;
    ML_ASSIGN_OR_RETURN(
        KnnResult knn,
        KnnClassify(ref, env.train.labels, query, env.test.labels, ko));
    result.knn[k] = knn.accuracy;
    // Per-task breakdown from the same predictions.
    for (int t = 0; t < c.num_tasks; ++t) {
      int64_t correct = 0, total = 0;
      for (int64_t i = 0; i < env.test.size(); ++i) {
        if (env.test.task_ids[static_cast<size_t>(i)] != t) continue;
        ++total;
        if (knn.predictions[static_cast<size_t>(i)] ==
            env.test.labels[static_cast<size_t>(i)]) {
          ++correct;
        }
      }
      result.per_task[t][k] =
          total > 0 ? static_cast<double>(correct) / total : 0.0;
    }
  }
  return result;
}

}  // namespace

Result<Table1Result> RunTable1Experiment(
    const ExperimentConfig& config,
    const std::vector<core::AdapterKind>& methods) {
  if (methods.empty()) {
    return Status::InvalidArgument("no methods requested");
  }
  if (config.num_seeds < 1) {
    return Status::InvalidArgument("num_seeds must be >= 1");
  }
  const bool need_extractor =
      std::any_of(methods.begin(), methods.end(), IsMetaKind);

  Table1Result table;
  table.backbone = config.backbone;
  table.methods.resize(methods.size());
  for (size_t m = 0; m < methods.size(); ++m) {
    table.methods[m].kind = methods[m];
  }

  for (int s = 0; s < config.num_seeds; ++s) {
    const uint64_t seed = config.seed + 7919ull * static_cast<uint64_t>(s);
    SeedEnv env;
    ML_RETURN_IF_ERROR(PrepareSeedEnv(config, seed, need_extractor, &env));
    for (size_t m = 0; m < methods.size(); ++m) {
      ML_ASSIGN_OR_RETURN(SingleRunResult run,
                          AdaptAndScore(config, env, methods[m], seed + m, -1));
      MethodSummary& summary = table.methods[m];
      for (const auto& [k, acc] : run.knn) {
        summary.accuracies[k].push_back(acc);
      }
      summary.trainable_params = run.trainable_params;
      summary.total_params = run.total_params;
      summary.adapt_seconds += run.adapt_seconds / config.num_seeds;
      if (config.verbose) {
        ML_LOG(Info) << BackboneKindName(config.backbone) << " seed " << s
                     << " " << core::AdapterKindName(methods[m]) << " K=5 acc "
                     << (run.knn.count(5) ? run.knn.at(5) : -1);
      }
    }
  }

  for (auto& summary : table.methods) {
    for (const auto& [k, accs] : summary.accuracies) {
      summary.mean_accuracy[k] = Mean(accs);
      summary.std_accuracy[k] = StdDev(accs);
    }
  }

  // Significance: best MetaLoRA variant vs best baseline, per K.
  for (int k : config.knn_ks) {
    const MethodSummary* best_baseline = nullptr;
    const MethodSummary* best_meta = nullptr;
    for (const auto& summary : table.methods) {
      if (!summary.mean_accuracy.count(k)) continue;
      const bool is_meta = summary.kind == AdapterKind::kMetaLoraCp ||
                           summary.kind == AdapterKind::kMetaLoraTr ||
                           summary.kind == AdapterKind::kMetaLotr ||
                           summary.kind == AdapterKind::kMetaTt;
      if (is_meta) {
        if (!best_meta ||
            summary.mean_accuracy.at(k) > best_meta->mean_accuracy.at(k)) {
          best_meta = &summary;
        }
      } else {
        if (!best_baseline ||
            summary.mean_accuracy.at(k) > best_baseline->mean_accuracy.at(k)) {
          best_baseline = &summary;
        }
      }
    }
    if (best_baseline && best_meta && config.num_seeds >= 2) {
      auto tt = WelchTTest(best_meta->accuracies.at(k),
                           best_baseline->accuracies.at(k));
      if (tt.ok()) {
        table.significance[k] = tt.value();
        table.best_meta[k] = best_meta->kind;
      }
    }
  }
  return table;
}

Result<SingleRunResult> RunSingleAdaptation(const ExperimentConfig& config,
                                            core::AdapterKind kind,
                                            uint64_t seed,
                                            int64_t exclude_task_from_adapt) {
  SeedEnv env;
  ML_RETURN_IF_ERROR(
      PrepareSeedEnv(config, seed, IsMetaKind(kind), &env));
  return AdaptAndScore(config, env, kind, seed + 1,
                       exclude_task_from_adapt);
}

}  // namespace eval
}  // namespace metalora
