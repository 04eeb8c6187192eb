#include "eval/train_loop.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "autograd/runtime_context.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "eval/metrics.h"
#include "nn/activation.h"
#include "optim/adam.h"
#include "optim/grad_clip.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace eval {

namespace {

// Any dropout that would actually fire? Per-module Rng draws consumed from
// concurrent shards would make the mask sequence depend on interleaving,
// which breaks the replica determinism contract, so the replicated path
// refuses to run with one.
bool HasActiveDropout(nn::Module* m) {
  if (auto* d = dynamic_cast<nn::Dropout*>(m)) {
    if (d->training() && d->p() > 0.0f) return true;
  }
  for (nn::Module* child : m->Children()) {
    if (HasActiveDropout(child)) return true;
  }
  return false;
}

// Binds a batch's adaptation context: its rows of the conditioning table
// (when the adapters are conditioned) and its oracle task ids. Runs on the
// context the step's forward will run on, so the binding lands in that
// replica's slot.
void BindBatch(const AdaptContext& ctx, const Tensor& cond,
               const data::Batch& batch) {
  if (cond.defined()) {
    ctx.injection.BindFeatures(
        nn::Variable(GatherRows(cond, batch.rows), /*requires_grad=*/false));
  }
  ctx.injection.BindTaskIds(batch.task_ids);
}

// The single-replica loop: num_replicas == 1 must stay bit-identical to
// the trainer before replicas existed.
Result<TrainStats> RunSingle(Backbone& backbone,
                             const data::MultiTaskDataset& train,
                             const TrainOptions& options, AdaptContext* ctx,
                             const Tensor& cond) {
  const bool adapting = ctx != nullptr;

  std::vector<nn::Variable> trainable;
  for (auto* v : backbone.module->TrainableParameters()) trainable.push_back(*v);
  if (trainable.empty()) {
    return Status::FailedPrecondition("no trainable parameters");
  }

  optim::AdamOptions adam_opts;
  adam_opts.lr = options.lr;
  adam_opts.weight_decay = options.weight_decay;
  optim::Adam optimizer(trainable, adam_opts);

  data::DataLoader loader(train, options.batch_size, /*shuffle=*/true,
                          options.seed);

  // Step-scoped arena: one batch's whole graph — forward intermediates,
  // saved tensors, backward scratch — lives in generation-tagged blocks
  // reclaimed wholesale by NextGeneration() at the next batch boundary.
  // Everything the loop reads after the step either lives on the heap
  // already (loss/logits are read before the bump) or is pinned there by
  // Backward (leaf gradients, for the optimizer).
  autograd::WorkspaceArena step_arena;
  autograd::RuntimeContext arena_ctx;
  std::optional<autograd::RuntimeContextScope> arena_scope;
  if (options.step_arena) {
    arena_ctx.set_profiling(autograd::RuntimeContext::Current().profiling());
    arena_ctx.set_arena(&step_arena);
    arena_ctx.set_arena_serves_grad(true);
    arena_scope.emplace(&arena_ctx);
  }

  TrainStats stats;
  Timer timer;
  double last_acc = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    double loss_acc = 0.0;
    int64_t seen = 0, correct = 0;
    for (int64_t b = 0; b < loader.num_batches(); ++b) {
      if (options.step_arena) step_arena.NextGeneration();
      data::Batch batch = loader.GetBatch(b);
      nn::Variable x(batch.images, /*requires_grad=*/false);

      if (adapting) BindBatch(*ctx, cond, batch);

      nn::Variable logits = backbone.forward_logits(x);
      nn::Variable loss = autograd::SoftmaxCrossEntropy(logits, batch.labels);

      if (epoch == 0 && b == 0) {
        // One step's graph is representative of them all (same architecture,
        // same batch shape); collect it once while it is still alive.
        stats.graph = autograd::CollectGraphStats(loss);
        if (options.verbose) {
          ML_LOG(Info) << (adapting ? "adapt" : "pretrain") << " graph "
                       << stats.graph.ToString();
        }
      }

      backbone.module->ZeroGrad();
      ML_RETURN_IF_ERROR(autograd::Backward(loss));
      if (options.clip_norm > 0) {
        optim::ClipGradNorm(trainable, options.clip_norm);
      }
      optimizer.Step();

      loss_acc += loss.value().flat(0) * static_cast<double>(batch.size());
      seen += batch.size();
      const auto preds = metalora::ArgmaxRows(logits.value());
      for (size_t i = 0; i < preds.size(); ++i) {
        if (preds[i] == batch.labels[i]) ++correct;
      }
    }
    loader.Reshuffle();
    const double epoch_loss = loss_acc / static_cast<double>(seen);
    last_acc = static_cast<double>(correct) / static_cast<double>(seen);
    stats.epoch_losses.push_back(epoch_loss);
    if (options.verbose) {
      ML_LOG(Info) << (adapting ? "adapt" : "pretrain") << " epoch "
                   << (epoch + 1) << "/" << options.epochs << " loss "
                   << epoch_loss << " acc " << last_acc;
    }
  }
  stats.final_train_accuracy = last_acc;
  stats.seconds = timer.Seconds();
  if (options.step_arena) {
    stats.arena_hit_rate = arena_ctx.ArenaHitRate();
    stats.arena_pin_count = arena_ctx.pin_count();
    stats.arena_peak_bytes = step_arena.peak_bytes();
  }
  return stats;
}

// Merges shard sink `src` into `dst` — one edge of the reduction tree. Per
// parameter the combine is AddInPlace (or a move when dst has no entry,
// e.g. the parameter only saw samples on one side), so the float summation
// order per leaf is exactly the tree order over shard indices.
void MergeSinks(autograd::GradSink* dst, autograd::GradSink* src) {
  for (auto& [var, grad] : *src) {
    Tensor& d = (*dst)[var];
    if (!d.defined()) {
      d = std::move(grad);
    } else {
      AddInPlace(d, grad);
    }
  }
  src->clear();
}

// The shard-parallel loop. See train_loop.h for the replica model and
// TrainOptions (trainer.h) for the determinism contract.
Result<TrainStats> RunReplicated(Backbone& backbone,
                                 const data::MultiTaskDataset& train,
                                 const TrainOptions& options,
                                 AdaptContext* ctx, const Tensor& cond) {
  const bool adapting = ctx != nullptr;
  const int shards = options.grad_shards;
  if (shards < 2) {
    return Status::InvalidArgument(
        "num_replicas > 1 requires grad_shards >= 2");
  }
  if (HasActiveDropout(backbone.module.get())) {
    return Status::InvalidArgument(
        "data-parallel training does not support active dropout: per-module "
        "Rng draws from concurrent shards would depend on interleaving");
  }

  std::vector<nn::Variable> trainable;
  for (auto* v : backbone.module->TrainableParameters()) trainable.push_back(*v);
  if (trainable.empty()) {
    return Status::FailedPrecondition("no trainable parameters");
  }

  optim::AdamOptions adam_opts;
  adam_opts.lr = options.lr;
  adam_opts.weight_decay = options.weight_decay;
  optim::Adam optimizer(trainable, adam_opts);

  data::DataLoader loader(train, options.batch_size, /*shuffle=*/true,
                          options.seed);

  if (adapting) ctx->injection.PrepareReplicas(shards);

  ThreadPool& pool =
      options.replica_pool != nullptr ? *options.replica_pool
                                      : GlobalThreadPool();
  const bool profiling = autograd::RuntimeContext::Current().profiling();

  // One context + one step arena per micro-shard, persistent across steps
  // (contexts keep cumulative telemetry, arenas keep their blocks warm).
  // Each shard is one deterministic single-threaded program: its lane is a
  // ParallelFor chunk (ForkJoinReplicas), so everything the shard issues
  // stays on the lane's thread.
  std::vector<std::unique_ptr<autograd::RuntimeContext>> shard_ctxs;
  std::vector<std::unique_ptr<autograd::WorkspaceArena>> shard_arenas;
  for (int s = 0; s < shards; ++s) {
    auto rctx = std::make_unique<autograd::RuntimeContext>();
    rctx->set_profiling(profiling);
    rctx->set_replica_id(s);
    if (options.step_arena) {
      shard_arenas.push_back(std::make_unique<autograd::WorkspaceArena>());
      rctx->set_arena(shard_arenas.back().get());
      rctx->set_arena_serves_grad(true);
    }
    shard_ctxs.push_back(std::move(rctx));
  }

  TrainStats stats;
  Timer timer;
  double last_acc = 0.0;
  bool graph_collected = false;
  int64_t step = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    double loss_acc = 0.0;
    int64_t seen = 0, correct = 0;
    for (int64_t b = 0; b < loader.num_batches(); ++b, ++step) {
      const int64_t batch_n =
          std::min<int64_t>(loader.dataset_size() - b * options.batch_size,
                            options.batch_size);
      // Elastic mode: lanes may join/leave between steps. Shards are fixed,
      // so the schedule moves work between threads without moving a single
      // float — trained parameters do not depend on it.
      int lanes = options.elastic_lanes ? options.elastic_lanes(step)
                                        : options.num_replicas;
      lanes = std::clamp(lanes, 1, shards);

      std::vector<autograd::GradSink> sinks(static_cast<size_t>(shards));
      std::vector<Status> shard_status(static_cast<size_t>(shards),
                                       Status::OK());
      std::vector<double> shard_loss(static_cast<size_t>(shards), 0.0);
      std::vector<int64_t> shard_n(static_cast<size_t>(shards), 0);
      std::vector<int64_t> shard_correct(static_cast<size_t>(shards), 0);
      const bool collect_graph = !graph_collected;

      pool.ForkJoinReplicas(lanes, [&](int lane) {
        for (int s = lane; s < shards; s += lanes) {
          int64_t lo = 0, hi = 0;
          data::ShardRange(batch_n, shards, s, &lo, &hi);
          shard_n[static_cast<size_t>(s)] = hi - lo;
          if (lo == hi) continue;  // short batch: this shard sits out

          autograd::RuntimeContext& rctx = *shard_ctxs[static_cast<size_t>(s)];
          if (options.step_arena) {
            shard_arenas[static_cast<size_t>(s)]->NextGeneration();
          }
          rctx.set_grad_sink(&sinks[static_cast<size_t>(s)]);
          autograd::RuntimeContextScope scope(&rctx);

          data::Batch shard = loader.GetBatchSlice(b, lo, hi);
          nn::Variable x(shard.images, /*requires_grad=*/false);
          if (adapting) BindBatch(*ctx, cond, shard);

          nn::Variable logits = backbone.forward_logits(x);
          nn::Variable loss =
              autograd::SoftmaxCrossEntropy(logits, shard.labels);
          if (collect_graph && s == 0) {
            stats.graph = autograd::CollectGraphStats(loss);
          }

          // Shard loss is the mean over its own rows; seeding backward with
          // n_s / n_b makes the tree-sum of shard gradients the gradient of
          // the full-batch mean loss.
          const float weight = static_cast<float>(hi - lo) /
                               static_cast<float>(batch_n);
          Tensor seed = Tensor::Full(loss.shape(), weight);
          shard_status[static_cast<size_t>(s)] =
              autograd::BackwardWithGrad(loss, seed);
          rctx.set_grad_sink(nullptr);

          shard_loss[static_cast<size_t>(s)] = loss.value().flat(0);
          const auto preds = metalora::ArgmaxRows(logits.value());
          for (size_t i = 0; i < preds.size(); ++i) {
            if (preds[i] == shard.labels[i]) {
              ++shard_correct[static_cast<size_t>(s)];
            }
          }
        }
      });

      for (const Status& st : shard_status) ML_RETURN_IF_ERROR(st);
      if (collect_graph) {
        graph_collected = true;
        if (options.verbose) {
          ML_LOG(Info) << (adapting ? "adapt" : "pretrain") << " shard graph "
                       << stats.graph.ToString();
        }
      }

      // Fixed binary-tree reduction over shard index: stride doubling,
      // sink[s] += sink[s + stride]. The same tree for every step, every
      // lane count, every machine — this order IS the determinism contract.
      for (int stride = 1; stride < shards; stride *= 2) {
        for (int s = 0; s + stride < shards; s += 2 * stride) {
          MergeSinks(&sinks[static_cast<size_t>(s)],
                     &sinks[static_cast<size_t>(s + stride)]);
        }
      }

      // Join point: hand the reduced gradients to the optimizer in its
      // stable parameter order. One global clip, one Step, one parameter-
      // version bump — per step, not per replica.
      std::vector<Tensor> reduced(trainable.size());
      autograd::GradSink& total = sinks[0];
      for (size_t i = 0; i < trainable.size(); ++i) {
        auto it = total.find(trainable[i].impl().get());
        if (it != total.end()) reduced[i] = std::move(it->second);
      }
      optimizer.AccumulateAndStep(std::move(reduced), options.clip_norm);

      for (int s = 0; s < shards; ++s) {
        loss_acc += shard_loss[static_cast<size_t>(s)] *
                    static_cast<double>(shard_n[static_cast<size_t>(s)]);
        correct += shard_correct[static_cast<size_t>(s)];
      }
      seen += batch_n;
    }
    loader.Reshuffle();
    const double epoch_loss = loss_acc / static_cast<double>(seen);
    last_acc = static_cast<double>(correct) / static_cast<double>(seen);
    stats.epoch_losses.push_back(epoch_loss);
    if (options.verbose) {
      ML_LOG(Info) << (adapting ? "adapt" : "pretrain") << " epoch "
                   << (epoch + 1) << "/" << options.epochs << " loss "
                   << epoch_loss << " acc " << last_acc;
    }
  }
  stats.final_train_accuracy = last_acc;
  stats.seconds = timer.Seconds();
  if (options.step_arena) {
    int64_t arena_served = 0, heap_served = 0, pins = 0, peak = 0;
    for (int s = 0; s < shards; ++s) {
      arena_served += shard_ctxs[static_cast<size_t>(s)]->arena_served();
      heap_served += shard_ctxs[static_cast<size_t>(s)]->heap_served();
      pins += shard_ctxs[static_cast<size_t>(s)]->pin_count();
      peak = std::max(peak,
                      shard_arenas[static_cast<size_t>(s)]->peak_bytes());
    }
    const int64_t alloc_total = arena_served + heap_served;
    stats.arena_hit_rate =
        alloc_total > 0
            ? static_cast<double>(arena_served) /
                  static_cast<double>(alloc_total)
            : 0.0;
    stats.arena_pin_count = pins;
    stats.arena_peak_bytes = peak;
  }
  return stats;
}

}  // namespace

Result<TrainStats> TrainLoop(Backbone& backbone,
                             const data::MultiTaskDataset& train,
                             const TrainOptions& options, AdaptContext* ctx) {
  if (train.size() == 0) {
    return Status::InvalidArgument("training dataset is empty");
  }
  if (options.epochs < 1 || options.batch_size < 1) {
    return Status::InvalidArgument("epochs and batch_size must be positive");
  }
  if (options.num_replicas < 1) {
    return Status::InvalidArgument("num_replicas must be >= 1");
  }

  const bool adapting = ctx != nullptr;
  // Pre-training uses train mode (live batch-norm); adaptation freezes the
  // backbone statistics by staying in eval mode.
  backbone.module->SetTraining(!adapting);

  // The conditioning table: the extractor is frozen and maps each row on
  // its own, so every training row is embedded once, here, and each step
  // gathers its rows — the bytes a per-batch Extract would produce. It
  // runs in a fresh context, as Extract does.
  Tensor cond;
  if (adapting && ctx->extractor != nullptr) {
    autograd::RuntimeContext extract_ctx;
    autograd::RuntimeContextScope scope(&extract_ctx);
    cond = ctx->extractor->ExtractAll(train.images, options.batch_size);
  }

  return options.num_replicas == 1
             ? RunSingle(backbone, train, options, ctx, cond)
             : RunReplicated(backbone, train, options, ctx, cond);
}

}  // namespace eval
}  // namespace metalora
