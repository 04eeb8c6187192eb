// Failure injection: malformed inputs, corrupt files, and API misuse must
// yield Status errors (recoverable) or ML_CHECK aborts (programmer errors) —
// never silent corruption.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/rng.h"
#include "core/inject.h"
#include "core/tn_adapter.h"
#include "eval/experiment.h"
#include "nn/resnet.h"
#include "tensor/serialize.h"

namespace metalora {
namespace {

TEST(FailureTest, CorruptCheckpointLoadIsStatusError) {
  const std::string path = "/tmp/ml_fail_ckpt.bin";
  nn::ResNetConfig c;
  c.base_width = 4;
  c.seed = 1;
  nn::ResNet net(c);
  ASSERT_TRUE(net.SaveCheckpoint(path).ok());
  // Corrupt the middle of the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    const char junk[] = "XXXXXXXX";
    f.write(junk, sizeof(junk));
  }
  Status s = net.LoadCheckpoint(path);
  EXPECT_FALSE(s.ok());
  std::remove(path.c_str());
}

TEST(FailureTest, CheckpointFromDifferentArchitectureRejected) {
  const std::string path = "/tmp/ml_wrong_arch.bin";
  nn::ResNetConfig small;
  small.base_width = 4;
  small.seed = 1;
  nn::ResNetConfig wide;
  wide.base_width = 8;
  wide.seed = 1;
  nn::ResNet a(small), b(wide);
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());
  Status s = b.LoadCheckpoint(path);
  EXPECT_FALSE(s.ok());  // shape mismatch
  std::remove(path.c_str());
}

TEST(FailureTest, ExperimentWithZeroSeedsRejected) {
  eval::ExperimentConfig c;
  c.num_seeds = 0;
  EXPECT_FALSE(
      eval::RunTable1Experiment(c, {core::AdapterKind::kLora}).ok());
}

TEST(FailureTest, ExperimentWithBadTrainOptionsRejected) {
  eval::ExperimentConfig c;
  c.per_task_train = 4;
  c.per_task_test = 2;
  c.pretrain_samples = 8;
  c.pretrain.epochs = 0;  // invalid
  auto r = eval::RunSingleAdaptation(c, core::AdapterKind::kNone, 1);
  EXPECT_FALSE(r.ok());
}

TEST(FailureTest, MetaLoraForwardBeforeBindAborts) {
  Rng rng(1);
  core::AdapterOptions o;
  o.kind = core::AdapterKind::kMetaLoraCp;
  o.rank = 2;
  o.feature_dim = 8;
  o.seed = 1;
  core::TnAdapter meta(
      std::make_unique<nn::Linear>(4, 4, true, rng), o);
  nn::Variable x(Tensor::Ones(Shape{2, 4}), false);
  EXPECT_DEATH(meta.Forward(x), "SetFeatures");
}

TEST(FailureTest, InjectorRejectsInconsistentOptions) {
  nn::ResNetConfig c;
  c.base_width = 4;
  c.seed = 1;
  nn::ResNet net(c);
  core::AdapterOptions o;
  o.kind = core::AdapterKind::kMultiLora;
  o.rank = 2;
  o.num_tasks = 0;  // invalid
  EXPECT_FALSE(core::InjectAdapters(&net, o).ok());
}

TEST(FailureTest, TensorReadFromEmptyStreamFails) {
  std::ifstream missing("/tmp/definitely_not_here.bin");
  auto r = ReadTensor(missing);
  EXPECT_FALSE(r.ok());
}

TEST(FailureTest, SaveToUnwritablePathFails) {
  std::map<std::string, Tensor> m;
  m["x"] = Tensor::Ones(Shape{1});
  EXPECT_EQ(SaveTensorMap("/nonexistent-dir/deep/ckpt.bin", m).code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace metalora
