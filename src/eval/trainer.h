// Training loops: backbone pre-training and adapter fine-tuning.
//
// Keeping these in the library (rather than in each bench binary) guarantees
// every Table-I method runs through the identical pipeline: same loader,
// same optimizer schedule, same evaluation batching.
#ifndef METALORA_EVAL_TRAINER_H_
#define METALORA_EVAL_TRAINER_H_

#include <functional>
#include <memory>
#include <string>

#include "autograd/graph.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/feature_extractor.h"
#include "core/inject.h"
#include "data/dataloader.h"
#include "nn/mlp_mixer.h"
#include "nn/module.h"
#include "nn/resnet.h"
#include "nn/transformer.h"

namespace metalora {
namespace eval {

/// A model plus the feature/logit entry points the harness needs.
struct Backbone {
  std::unique_ptr<nn::Module> module;
  /// [N,C,H,W] -> [N, feature_dim].
  std::function<nn::Variable(const nn::Variable&)> forward_features;
  /// [N,C,H,W] -> [N, num_classes].
  std::function<nn::Variable(const nn::Variable&)> forward_logits;
  int64_t feature_dim = 0;
};

enum class BackboneKind { kResNet, kMlpMixer, kTransformer };

std::string BackboneKindName(BackboneKind kind);

/// Builds a fresh (randomly initialized) backbone of the given kind.
Backbone MakeResNetBackbone(const nn::ResNetConfig& config);
Backbone MakeMixerBackbone(const nn::MlpMixerConfig& config);
Backbone MakeTransformerBackbone(const nn::TransformerConfig& config);

struct TrainOptions {
  int epochs = 5;
  int64_t batch_size = 32;
  double lr = 1e-3;
  double weight_decay = 0.0;
  double clip_norm = 5.0;  // <= 0 disables
  uint64_t seed = 11;
  bool verbose = false;
  /// Serve each step's whole graph — forward intermediates, saved tensors,
  /// backward scratch — from a generation-tagged arena bumped once per
  /// batch. Leaf gradients are pinned to the heap for the optimizer.
  /// Numerically identical to heap allocation; off only for A/B benches.
  bool step_arena = true;

  // --- Data-parallel replicas ---------------------------------------------
  // Determinism contract (see DESIGN.md "Data-parallel training"):
  //   * num_replicas == 1 is the exact legacy single-replica program,
  //     bit-identical to the trainer before replicas existed.
  //   * num_replicas > 1 decomposes every batch into `grad_shards` fixed
  //     micro-shards; each shard's gradient is an independent deterministic
  //     single-threaded program, and shards combine in a fixed binary-tree
  //     order. The numerical program depends on grad_shards (and the usual
  //     seed/data/model inputs) but NOT on num_replicas, the pool size, the
  //     elastic schedule, or thread timing — so any replica count > 1 trains
  //     bit-identical parameters, reproducibly across runs and machines.

  /// Number of replica lanes executing shards concurrently. 1 (default)
  /// runs the legacy path; > 1 enables shard-parallel training. Lane counts
  /// above grad_shards are clamped (a lane needs at least one shard).
  int num_replicas = 1;
  /// Numerical decomposition width for num_replicas > 1: how many
  /// micro-shards each batch splits into. Part of the numerical program —
  /// changing it changes trained parameters; changing num_replicas does not.
  int grad_shards = 8;
  /// Elastic mode: per-step lane count (called with the global step index,
  /// result clamped to [1, grad_shards]), letting replicas join or leave
  /// between steps. Scheduling only — trained parameters are identical to
  /// any fixed lane count. Ignored when num_replicas == 1.
  std::function<int(int64_t step)> elastic_lanes = nullptr;
  /// Pool the replica lanes fork onto; nullptr = GlobalThreadPool().
  ThreadPool* replica_pool = nullptr;
};

struct TrainStats {
  std::vector<double> epoch_losses;
  double final_train_accuracy = 0.0;
  double seconds = 0.0;
  /// Autograd graph shape of one training step (collected on the first
  /// batch): node count per op, bytes pinned for backward. Verbose runs log
  /// it; benches report it.
  autograd::GraphStats graph;
  /// Step-arena telemetry (zeros when options.step_arena is false).
  double arena_hit_rate = 0.0;
  int64_t arena_pin_count = 0;
  int64_t arena_peak_bytes = 0;
};

/// Supervised pre-training of all backbone parameters with Adam +
/// cross-entropy (the "pre-trained model" every PEFT method starts from).
Result<TrainStats> PretrainBackbone(Backbone& backbone,
                                    const data::MultiTaskDataset& train,
                                    const TrainOptions& options);

/// Adapter fine-tuning context: which adapters to bind per batch and,
/// for MetaLoRA, the frozen extractor producing conditioning features.
struct AdaptContext {
  core::InjectionResult injection;
  /// MetaLoRA only. AdaptModel runs it once per training row, before
  /// epoch 1, and binds each batch's rows of that table, so it must be a
  /// pure per-row function: frozen, in eval mode, and mapping each image
  /// to the same features whatever batch it arrives in.
  const core::FeatureExtractor* extractor = nullptr;
};

/// Trains only requires_grad parameters (adapters + mapping nets) with the
/// backbone in eval mode (frozen batch-norm statistics). With an
/// extractor, embeds every training row once before epoch 1
/// (ExtractAll); each batch then binds its rows of that table as
/// conditioning features, byte-equal to extracting the batch. Binds
/// oracle task ids on every batch.
Result<TrainStats> AdaptModel(Backbone& backbone,
                              const data::MultiTaskDataset& train,
                              const TrainOptions& options, AdaptContext* ctx);

/// Extracts features for a whole dataset through the (possibly adapted)
/// backbone, binding per-batch context exactly as during adaptation.
Tensor ExtractDatasetFeatures(Backbone& backbone,
                              const data::MultiTaskDataset& ds,
                              int64_t batch_size, AdaptContext* ctx);

}  // namespace eval
}  // namespace metalora

#endif  // METALORA_EVAL_TRAINER_H_
