// Conv-LoRA fine-tuning and deployment (paper §III.A, Eq. 5).
//
// Scenario: a CNN pre-trained on the base domain must be specialized to a
// single shifted domain. We wrap every 3×3 convolution in a Conv-LoRA
// adapter, fine-tune the low-rank path only, then MERGE the update into the
// base weights so deployment pays zero adapter overhead, and round-trip the
// merged model through a checkpoint.
//
// Build & run:  ./build/examples/conv_lora_finetune
#include <cstdio>
#include <iostream>

#include "core/inject.h"
#include "core/tn_adapter.h"
#include "data/task_suite.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "tensor/tensor_ops.h"

using namespace metalora;  // NOLINT

namespace {

double EvalAccuracy(eval::Backbone& backbone,
                    const data::MultiTaskDataset& ds) {
  autograd::NoGradGuard guard;
  backbone.module->SetTraining(false);
  nn::Variable logits =
      backbone.forward_logits(nn::Variable(ds.images, false));
  return eval::LogitsAccuracy(logits.value(), ds.labels);
}

}  // namespace

int main() {
  // Base-domain pre-training corpus and one shifted target domain.
  data::ImageSpec spec{3, 16, 16};
  data::SyntheticImageGenerator generator(spec, /*num_classes=*/4);
  data::TaskSuite suite(/*num_tasks=*/2, /*seed=*/21);  // task 1 = the shift
  data::MultiTaskDataset base = data::MakeBaseDataset(generator, 256, 1);
  data::MultiTaskDataset shifted_all =
      data::MakeMultiTaskDataset(generator, suite, 96, 2);
  data::MultiTaskDataset target_train = data::FilterTask(shifted_all, 1);
  data::MultiTaskDataset target_test =
      data::FilterTask(data::MakeMultiTaskDataset(generator, suite, 48, 3), 1);
  std::cout << "target domain: " << suite.task(1).ToString() << "\n";

  nn::ResNetConfig config;
  config.base_width = 8;
  config.num_classes = 4;
  config.seed = 5;
  eval::Backbone backbone = eval::MakeResNetBackbone(config);
  eval::TrainOptions popts;
  popts.epochs = 3;
  popts.lr = 2e-3;
  ML_CHECK_OK(eval::PretrainBackbone(backbone, base, popts).status());
  std::cout << "accuracy on shifted domain BEFORE adaptation: "
            << EvalAccuracy(backbone, target_test) << "\n";

  // Wrap convolutions in Conv-LoRA; everything else stays frozen.
  core::AdapterOptions opts;
  opts.kind = core::AdapterKind::kLora;
  opts.rank = 2;
  opts.alpha = 4.0f;
  auto injection = core::InjectAdapters(backbone.module.get(), opts);
  ML_CHECK_OK(injection.status());
  std::cout << "wrapped " << injection->num_wrapped_convs
            << " convs; adapter params " << injection->adapter_param_count
            << "\n";

  eval::AdaptContext ctx;
  ctx.injection = injection.value();
  eval::TrainOptions aopts;
  aopts.epochs = 5;
  aopts.lr = 5e-3;
  ML_CHECK_OK(eval::AdaptModel(backbone, target_train, aopts, &ctx).status());
  const double adapted_acc = EvalAccuracy(backbone, target_test);
  std::cout << "accuracy on shifted domain AFTER adaptation:  " << adapted_acc
            << "\n";

  // Checkpoint the adapted (unmerged) model and reload it into a freshly
  // injected replica — the standard way to ship a LoRA fine-tune.
  const std::string path = "/tmp/conv_lora_adapted.ckpt";
  ML_CHECK_OK(backbone.module->SaveCheckpoint(path));
  eval::Backbone reloaded = eval::MakeResNetBackbone(config);
  auto reinject = core::InjectAdapters(reloaded.module.get(), opts);
  ML_CHECK_OK(reinject.status());
  ML_CHECK_OK(reloaded.module->LoadCheckpoint(path));
  const double reloaded_acc = EvalAccuracy(reloaded, target_test);
  std::cout << "reloaded checkpoint accuracy: " << reloaded_acc << "\n";
  ML_CHECK(std::abs(reloaded_acc - adapted_acc) < 1e-9)
      << "checkpoint round trip must be exact";

  // Deployment: merge ΔW into the base weights (the Fig. 3 identity) so
  // inference pays zero adapter overhead; Forward skips the adapter branch
  // once merged.
  for (core::Adapter* adapter : reinject->adapters) {
    static_cast<core::TnAdapter*>(adapter)->Merge();
  }
  const double merged_acc = EvalAccuracy(reloaded, target_test);
  std::cout << "accuracy with merged weights (no adapter path): " << merged_acc
            << "\n";
  ML_CHECK(std::abs(merged_acc - adapted_acc) < 5e-2)
      << "merge must preserve the function up to fp32 rounding";
  std::remove(path.c_str());
  return 0;
}
