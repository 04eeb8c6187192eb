#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "data/dataloader.h"
#include "data/synthetic_images.h"
#include "data/task_suite.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace data {
namespace {

ImageSpec Spec() { return ImageSpec{3, 16, 16}; }

TEST(SyntheticImagesTest, ClassCountBounds) {
  EXPECT_GE(MaxSyntheticClasses(), 8);
  EXPECT_DEATH(SyntheticImageGenerator(Spec(), 1), "");
  EXPECT_DEATH(SyntheticImageGenerator(Spec(), MaxSyntheticClasses() + 1), "");
}

TEST(SyntheticImagesTest, SampleShapeAndRange) {
  SyntheticImageGenerator gen(Spec(), 6);
  Rng rng(1);
  for (int64_t c = 0; c < 6; ++c) {
    Tensor img = gen.Sample(c, rng);
    EXPECT_EQ(img.shape(), Shape({3, 16, 16}));
    EXPECT_GE(MinAll(img), 0.0f);
    EXPECT_LE(MaxAll(img), 1.0f);
  }
}

TEST(SyntheticImagesTest, DeterministicGivenRngState) {
  SyntheticImageGenerator gen(Spec(), 4);
  Rng a(42), b(42);
  Tensor ia = gen.Sample(2, a);
  Tensor ib = gen.Sample(2, b);
  EXPECT_TRUE(AllClose(ia, ib, 0.0f, 0.0f));
}

TEST(SyntheticImagesTest, SamplesOfSameClassVary) {
  SyntheticImageGenerator gen(Spec(), 4);
  Rng rng(1);
  Tensor a = gen.Sample(0, rng);
  Tensor b = gen.Sample(0, rng);
  EXPECT_FALSE(AllClose(a, b));  // randomized placement/noise
}

TEST(SyntheticImagesTest, ClassesAreVisuallyDistinct) {
  // Mean absolute difference between class prototypes should be significant.
  SyntheticImageGenerator gen(Spec(), 6);
  Rng rng(3);
  Tensor disk = gen.Sample(0, rng);
  Tensor stripes = gen.Sample(2, rng);
  EXPECT_GT(MaxAbsDiff(disk, stripes), 0.3f);
}

TEST(SyntheticImagesTest, ClassNames) {
  EXPECT_EQ(SyntheticClassName(0), "disk");
  EXPECT_DEATH(SyntheticClassName(MaxSyntheticClasses()), "");
}

TEST(SyntheticImagesTest, BatchSampling) {
  SyntheticImageGenerator gen(Spec(), 5);
  Rng rng(4);
  Tensor images;
  std::vector<int64_t> labels;
  gen.SampleBatch(40, rng, &images, &labels);
  EXPECT_EQ(images.shape(), Shape({40, 3, 16, 16}));
  ASSERT_EQ(labels.size(), 40u);
  std::set<int64_t> seen(labels.begin(), labels.end());
  EXPECT_GE(seen.size(), 3u);  // uniform draw hits several classes
  for (int64_t y : labels) EXPECT_LT(y, 5);
}

TEST(TaskSuiteTest, TaskZeroIsIdentity) {
  TaskSuite suite(4, 7);
  const TaskTransform& t0 = suite.task(0);
  EXPECT_FALSE(t0.invert);
  EXPECT_EQ(t0.rot90, 0);
  EXPECT_FALSE(t0.flip_h);
  EXPECT_EQ(t0.contrast, 1.0f);
  EXPECT_EQ(t0.brightness, 0.0f);
  // Identity transform leaves images (nearly) unchanged.
  SyntheticImageGenerator gen(Spec(), 4);
  Rng rng(1);
  Tensor img = gen.Sample(1, rng);
  Tensor out = ApplyTransform(img, t0, rng);
  EXPECT_TRUE(AllClose(out, img, 1e-5f, 1e-5f));
}

TEST(TaskSuiteTest, LaterTasksShiftTheDistribution) {
  TaskSuite suite(4, 7);
  SyntheticImageGenerator gen(Spec(), 4);
  Rng rng(2);
  Tensor img = gen.Sample(0, rng);
  for (int t = 1; t < 4; ++t) {
    Tensor out = ApplyTransform(img, suite.task(t), rng);
    EXPECT_GT(MaxAbsDiff(out, img), 0.05f) << "task " << t;
  }
}

TEST(TaskSuiteTest, TasksConflict) {
  // Odd tasks invert, even tasks don't (the conflicting-shift construction).
  TaskSuite suite(5, 9);
  EXPECT_TRUE(suite.task(1).invert);
  EXPECT_FALSE(suite.task(2).invert);
  EXPECT_TRUE(suite.task(3).invert);
}

TEST(TaskSuiteTest, DeterministicFromSeed) {
  TaskSuite a(4, 11), b(4, 11);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(a.task(t).ToString(), b.task(t).ToString());
  }
  TaskSuite c(4, 12);
  EXPECT_NE(a.task(2).ToString(), c.task(2).ToString());
}

TEST(TaskSuiteTest, InvertFlipsIntensity) {
  TaskTransform t;
  t.invert = true;
  Tensor img = Tensor::Full(Shape{3, 4, 4}, 0.2f);
  Rng rng(1);
  Tensor out = ApplyTransform(img, t, rng);
  EXPECT_NEAR(out.flat(0), 0.8f, 1e-5);
}

TEST(TaskSuiteTest, OutputStaysInRange) {
  TaskSuite suite(6, 13);
  SyntheticImageGenerator gen(Spec(), 4);
  Rng rng(3);
  for (int t = 0; t < 6; ++t) {
    Tensor out = ApplyTransform(gen.Sample(t % 4, rng), suite.task(t), rng);
    EXPECT_GE(MinAll(out), 0.0f);
    EXPECT_LE(MaxAll(out), 1.0f);
  }
}

TEST(DatasetTest, MultiTaskSizesAndIds) {
  SyntheticImageGenerator gen(Spec(), 4);
  TaskSuite suite(3, 5);
  MultiTaskDataset ds = MakeMultiTaskDataset(gen, suite, 10, 17);
  EXPECT_EQ(ds.size(), 30);
  EXPECT_EQ(ds.images.shape(), Shape({30, 3, 16, 16}));
  int counts[3] = {0, 0, 0};
  for (int64_t t : ds.task_ids) ++counts[t];
  EXPECT_EQ(counts[0], 10);
  EXPECT_EQ(counts[1], 10);
  EXPECT_EQ(counts[2], 10);
}

TEST(DatasetTest, BaseDatasetIsSingleTask) {
  SyntheticImageGenerator gen(Spec(), 4);
  MultiTaskDataset ds = MakeBaseDataset(gen, 20, 3);
  EXPECT_EQ(ds.size(), 20);
  for (int64_t t : ds.task_ids) EXPECT_EQ(t, 0);
}

TEST(DatasetTest, SplitPreservesTotalAndContent) {
  SyntheticImageGenerator gen(Spec(), 4);
  TaskSuite suite(2, 5);
  MultiTaskDataset all = MakeMultiTaskDataset(gen, suite, 20, 19);
  MultiTaskDataset train, test;
  SplitDataset(all, 0.25, 7, &train, &test);
  EXPECT_EQ(test.size(), 10);
  EXPECT_EQ(train.size(), 30);
  EXPECT_EQ(train.size() + test.size(), all.size());
}

TEST(DatasetTest, FilterAndExcludeTask) {
  SyntheticImageGenerator gen(Spec(), 4);
  TaskSuite suite(3, 5);
  MultiTaskDataset all = MakeMultiTaskDataset(gen, suite, 8, 23);
  MultiTaskDataset only1 = FilterTask(all, 1);
  EXPECT_EQ(only1.size(), 8);
  for (int64_t t : only1.task_ids) EXPECT_EQ(t, 1);
  MultiTaskDataset without1 = ExcludeTask(all, 1);
  EXPECT_EQ(without1.size(), 16);
  for (int64_t t : without1.task_ids) EXPECT_NE(t, 1);
}

TEST(DataLoaderTest, CoversAllSamplesOnce) {
  SyntheticImageGenerator gen(Spec(), 4);
  MultiTaskDataset ds = MakeBaseDataset(gen, 25, 31);
  DataLoader loader(ds, 8, /*shuffle=*/true, 3);
  EXPECT_EQ(loader.num_batches(), 4);
  int64_t total = 0;
  std::multiset<int64_t> labels_seen;
  for (int64_t b = 0; b < loader.num_batches(); ++b) {
    Batch batch = loader.GetBatch(b);
    total += batch.size();
    for (int64_t y : batch.labels) labels_seen.insert(y);
  }
  EXPECT_EQ(total, 25);
  EXPECT_EQ(labels_seen.size(), ds.labels.size());
}

TEST(DataLoaderTest, LastBatchIsSmaller) {
  SyntheticImageGenerator gen(Spec(), 4);
  MultiTaskDataset ds = MakeBaseDataset(gen, 10, 37);
  DataLoader loader(ds, 4, false, 0);
  EXPECT_EQ(loader.GetBatch(2).size(), 2);
}

TEST(DataLoaderTest, NoShuffleKeepsOrder) {
  SyntheticImageGenerator gen(Spec(), 4);
  MultiTaskDataset ds = MakeBaseDataset(gen, 6, 41);
  DataLoader loader(ds, 3, false, 0);
  Batch b0 = loader.GetBatch(0);
  EXPECT_EQ(b0.labels[0], ds.labels[0]);
  EXPECT_EQ(b0.labels[2], ds.labels[2]);
}

TEST(DataLoaderTest, ReshuffleChangesOrder) {
  SyntheticImageGenerator gen(Spec(), 6);
  MultiTaskDataset ds = MakeBaseDataset(gen, 64, 43);
  DataLoader loader(ds, 64, true, 5);
  Batch before = loader.GetBatch(0);
  loader.Reshuffle();
  Batch after = loader.GetBatch(0);
  EXPECT_NE(before.labels, after.labels);
}

TEST(DataLoaderTest, EmptyDatasetDies) {
  MultiTaskDataset empty;
  EXPECT_DEATH(DataLoader(empty, 4, false, 0), "empty");
}

TEST(DataLoaderTest, ShuffleOrderDependsOnlyOnSeed) {
  // The replica determinism contract leans on this: sample order is a
  // function of (seed, Reshuffle count) alone, never of who reads the
  // loader or in what slices.
  SyntheticImageGenerator gen(Spec(), 4);
  MultiTaskDataset ds = MakeBaseDataset(gen, 26, 51);
  DataLoader whole(ds, 8, true, 9);
  DataLoader sliced(ds, 8, true, 9);
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int64_t b = 0; b < whole.num_batches(); ++b) {
      Batch full = whole.GetBatch(b);
      // Read the same batch as shards, in reverse shard order.
      std::vector<int64_t> labels, task_ids;
      labels.resize(static_cast<size_t>(full.size()));
      task_ids.resize(static_cast<size_t>(full.size()));
      for (int s = 3; s >= 0; --s) {
        int64_t lo = 0, hi = 0;
        ShardRange(full.size(), 4, s, &lo, &hi);
        Batch shard = sliced.GetBatchSlice(b, lo, hi);
        for (int64_t i = lo; i < hi; ++i) {
          labels[static_cast<size_t>(i)] =
              shard.labels[static_cast<size_t>(i - lo)];
          task_ids[static_cast<size_t>(i)] =
              shard.task_ids[static_cast<size_t>(i - lo)];
        }
      }
      EXPECT_EQ(labels, full.labels) << "epoch " << epoch << " batch " << b;
      EXPECT_EQ(task_ids, full.task_ids);
    }
    whole.Reshuffle();
    sliced.Reshuffle();
  }
}

TEST(DataLoaderTest, BatchSliceRowsMatchFullBatchBitwise) {
  SyntheticImageGenerator gen(Spec(), 4);
  MultiTaskDataset ds = MakeBaseDataset(gen, 10, 53);
  DataLoader loader(ds, 8, true, 3);
  Batch full = loader.GetBatch(0);
  const int64_t row_floats = full.images.numel() / full.size();
  for (int s = 0; s < 3; ++s) {
    int64_t lo = 0, hi = 0;
    ShardRange(full.size(), 3, s, &lo, &hi);
    Batch shard = loader.GetBatchSlice(0, lo, hi);
    ASSERT_EQ(shard.size(), hi - lo);
    EXPECT_TRUE(std::equal(shard.images.data(),
                           shard.images.data() + shard.images.numel(),
                           full.images.data() + lo * row_floats));
  }
  // The empty range is a valid (absent) shard.
  EXPECT_EQ(loader.GetBatchSlice(0, 4, 4).size(), 0);
}

// Batch::rows names the dataset row behind every sample: the trainer
// gathers conditioning features by it, so it must match the images,
// labels and task ids the batch carries, in every slice and every epoch.
TEST(DataLoaderTest, BatchRowsNameTheGatheredSamples) {
  SyntheticImageGenerator gen(Spec(), 4);
  const TaskSuite suite(3, 61);
  MultiTaskDataset ds = MakeMultiTaskDataset(gen, suite, 7, 63);
  const int64_t row_floats = ds.images.numel() / ds.size();
  auto expect_rows_match = [&](const Batch& batch) {
    ASSERT_EQ(static_cast<int64_t>(batch.rows.size()), batch.size());
    for (int64_t i = 0; i < batch.size(); ++i) {
      const int64_t r = batch.rows[static_cast<size_t>(i)];
      ASSERT_TRUE(r >= 0 && r < ds.size());
      EXPECT_EQ(batch.labels[static_cast<size_t>(i)],
                ds.labels[static_cast<size_t>(r)]);
      EXPECT_EQ(batch.task_ids[static_cast<size_t>(i)],
                ds.task_ids[static_cast<size_t>(r)]);
      EXPECT_TRUE(std::equal(batch.images.data() + i * row_floats,
                             batch.images.data() + (i + 1) * row_floats,
                             ds.images.data() + r * row_floats));
    }
  };
  DataLoader loader(ds, 8, /*shuffle=*/true, 65);
  std::vector<int64_t> first_epoch;
  for (int epoch = 0; epoch < 2; ++epoch) {
    std::vector<int64_t> seen;
    for (int64_t b = 0; b < loader.num_batches(); ++b) {
      const Batch full = loader.GetBatch(b);
      expect_rows_match(full);
      seen.insert(seen.end(), full.rows.begin(), full.rows.end());
      for (int s = 0; s < 3; ++s) {
        int64_t lo = 0, hi = 0;
        ShardRange(full.size(), 3, s, &lo, &hi);
        const Batch shard = loader.GetBatchSlice(b, lo, hi);
        expect_rows_match(shard);
        EXPECT_TRUE(std::equal(shard.rows.begin(), shard.rows.end(),
                               full.rows.begin() + lo));
      }
    }
    // Each epoch visits every row once.
    std::vector<int64_t> sorted = seen;
    std::sort(sorted.begin(), sorted.end());
    for (int64_t r = 0; r < ds.size(); ++r) {
      EXPECT_EQ(sorted[static_cast<size_t>(r)], r);
    }
    if (epoch == 0) first_epoch = seen;
    if (epoch == 1) {
      EXPECT_NE(seen, first_epoch) << "Reshuffle had no effect";
    }
    loader.Reshuffle();
  }
}

TEST(ShardRangeTest, PartitionsExactlyWithLargerShardsFirst) {
  for (int64_t n : {0, 1, 2, 7, 8, 9, 31, 64}) {
    for (int shards : {1, 2, 3, 8, 16}) {
      int64_t expected_lo = 0;
      int64_t min_size = n, max_size = 0;
      for (int s = 0; s < shards; ++s) {
        int64_t lo = 0, hi = 0;
        ShardRange(n, shards, s, &lo, &hi);
        EXPECT_EQ(lo, expected_lo) << "gap at n=" << n << " s=" << s;
        EXPECT_GE(hi, lo);
        min_size = std::min(min_size, hi - lo);
        max_size = std::max(max_size, hi - lo);
        if (s > 0) {
          int64_t prev_lo = 0, prev_hi = 0;
          ShardRange(n, shards, s - 1, &prev_lo, &prev_hi);
          EXPECT_LE(hi - lo, prev_hi - prev_lo) << "larger shards first";
        }
        expected_lo = hi;
      }
      EXPECT_EQ(expected_lo, n) << "partition must cover [0, n) exactly";
      if (n >= shards) {
        EXPECT_LE(max_size - min_size, 1);
      }
    }
  }
}

}  // namespace
}  // namespace data
}  // namespace metalora
