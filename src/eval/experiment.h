// The Table-I experiment protocol (paper §IV):
//   1. pre-train a backbone on the base (identity-task) distribution;
//   2. adapt it to a multi-task suite with each PEFT method;
//   3. score frozen-feature KNN accuracy (K = 5, 10) on a held-out split;
//   4. repeat over seeds and mark two-sided Welch t-test significance of the
//      best MetaLoRA variant against the best baseline.
#ifndef METALORA_EVAL_EXPERIMENT_H_
#define METALORA_EVAL_EXPERIMENT_H_

#include <map>
#include <string>
#include <vector>

#include "core/adapter_config.h"
#include "eval/trainer.h"
#include "eval/ttest.h"

namespace metalora {
namespace eval {

struct ExperimentConfig {
  BackboneKind backbone = BackboneKind::kResNet;

  // Data.
  int64_t image_size = 16;
  int64_t num_classes = 6;
  int num_tasks = 4;
  int64_t per_task_train = 96;
  int64_t per_task_test = 48;
  int64_t pretrain_samples = 512;

  // Backbone sizes (kept small: single-core CPU substrate).
  int64_t resnet_width = 8;
  int resnet_blocks = 1;
  int64_t mixer_hidden = 32;
  int mixer_blocks = 2;
  int64_t mixer_patch = 4;
  int64_t vit_dim = 32;
  int vit_heads = 4;
  int vit_blocks = 2;
  int64_t vit_patch = 4;

  // Adapters.
  int64_t rank = 2;
  float alpha = 8.0f;
  int64_t mapping_hidden = 32;
  /// Multi-LoRA: use oracle task routing instead of the (default) branch
  /// sum. Ablation D only.
  bool multi_lora_oracle = false;

  // Training.
  TrainOptions pretrain{.epochs = 4, .batch_size = 32, .lr = 2e-3};
  TrainOptions adapt{.epochs = 6, .batch_size = 32, .lr = 4e-3};

  // Evaluation.
  std::vector<int> knn_ks = {5, 10};
  int num_seeds = 3;
  uint64_t seed = 42;
  bool verbose = false;
};

/// Aggregated results of one adaptation method.
struct MethodSummary {
  core::AdapterKind kind = core::AdapterKind::kNone;
  /// K -> per-seed accuracies.
  std::map<int, std::vector<double>> accuracies;
  /// K -> mean accuracy.
  std::map<int, double> mean_accuracy;
  /// K -> sample standard deviation.
  std::map<int, double> std_accuracy;
  int64_t trainable_params = 0;
  int64_t total_params = 0;
  double adapt_seconds = 0.0;  // mean over seeds
};

struct Table1Result {
  BackboneKind backbone = BackboneKind::kResNet;
  std::vector<MethodSummary> methods;
  /// K -> t-test of the best MetaLoRA variant vs the best baseline.
  std::map<int, TTestResult> significance;
  /// K -> kind of the best MetaLoRA variant (what `significance` compares).
  std::map<int, core::AdapterKind> best_meta;
};

/// Runs the full protocol for one backbone over the given methods.
/// Methods must include at least one baseline and one MetaLoRA variant for
/// the significance test; otherwise `significance` stays empty.
Result<Table1Result> RunTable1Experiment(
    const ExperimentConfig& config,
    const std::vector<core::AdapterKind>& methods);

/// One seed × one method, with per-task breakdown (ablation building block).
struct SingleRunResult {
  /// K -> accuracy on the full test split.
  std::map<int, double> knn;
  /// task id -> (K -> accuracy on that task's test samples).
  std::map<int64_t, std::map<int, double>> per_task;
  int64_t trainable_params = 0;
  int64_t total_params = 0;
  double adapt_seconds = 0.0;
};

/// Runs pre-train → adapt → KNN for a single method and seed. If
/// `exclude_task_from_adapt` >= 0, that task's samples are withheld from
/// adaptation (unseen-task ablation); evaluation still covers all tasks.
Result<SingleRunResult> RunSingleAdaptation(const ExperimentConfig& config,
                                            core::AdapterKind kind,
                                            uint64_t seed,
                                            int64_t exclude_task_from_adapt = -1);

}  // namespace eval
}  // namespace metalora

#endif  // METALORA_EVAL_EXPERIMENT_H_
