#include "eval/knn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace eval {
namespace {

// Two well-separated 2-D clusters.
void MakeClusters(int per_class, Tensor* feats, std::vector<int64_t>* labels,
                  uint64_t seed) {
  Rng rng(seed);
  *feats = Tensor{Shape{2 * per_class, 2}};
  labels->clear();
  for (int i = 0; i < 2 * per_class; ++i) {
    const int64_t y = i < per_class ? 0 : 1;
    const float cx = y == 0 ? -5.0f : 5.0f;
    feats->flat(i * 2) = cx + static_cast<float>(rng.Normal(0, 0.5));
    feats->flat(i * 2 + 1) = static_cast<float>(rng.Normal(0, 0.5));
    labels->push_back(y);
  }
}

TEST(KnnTest, SeparableClustersAreClassified) {
  Tensor ref, query;
  std::vector<int64_t> ref_labels, query_labels;
  MakeClusters(20, &ref, &ref_labels, 1);
  MakeClusters(10, &query, &query_labels, 2);
  for (int k : {1, 5, 10}) {
    KnnOptions o;
    o.k = k;
    auto r = KnnClassify(ref, ref_labels, query, query_labels, o);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r->accuracy, 1.0) << "k=" << k;
  }
}

TEST(KnnTest, KOneIsNearestNeighbor) {
  Tensor ref = Tensor::FromVector(Shape{3, 1}, {0.0f, 10.0f, 20.0f});
  std::vector<int64_t> ref_labels = {7, 8, 9};
  Tensor query = Tensor::FromVector(Shape{2, 1}, {1.0f, 19.0f});
  std::vector<int64_t> query_labels = {7, 9};
  KnnOptions o;
  o.k = 1;
  auto r = KnnClassify(ref, ref_labels, query, query_labels, o);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->predictions, (std::vector<int64_t>{7, 9}));
  EXPECT_DOUBLE_EQ(r->accuracy, 1.0);
}

TEST(KnnTest, MajorityVoteWins) {
  // Query at 0. Neighbors: two of class 1 at ±1, one of class 0 at 0.1.
  Tensor ref = Tensor::FromVector(Shape{3, 1}, {0.1f, -1.0f, 1.0f});
  std::vector<int64_t> ref_labels = {0, 1, 1};
  Tensor query = Tensor::FromVector(Shape{1, 1}, {0.0f});
  KnnOptions o;
  o.k = 3;
  auto r = KnnClassify(ref, ref_labels, query, {1}, o);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->predictions[0], 1);
}

TEST(KnnTest, TieBreaksTowardNearest) {
  // k=2: one vote each; class of the nearest neighbor must win.
  Tensor ref = Tensor::FromVector(Shape{2, 1}, {0.1f, -0.5f});
  std::vector<int64_t> ref_labels = {3, 4};
  Tensor query = Tensor::FromVector(Shape{1, 1}, {0.0f});
  KnnOptions o;
  o.k = 2;
  auto r = KnnClassify(ref, ref_labels, query, {3}, o);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->predictions[0], 3);
}

TEST(KnnTest, KLargerThanReferenceIsClamped) {
  Tensor ref = Tensor::FromVector(Shape{2, 1}, {0.0f, 1.0f});
  Tensor query = Tensor::FromVector(Shape{1, 1}, {0.2f});
  KnnOptions o;
  o.k = 50;
  auto r = KnnClassify(ref, {0, 1}, query, {0}, o);
  ASSERT_TRUE(r.ok());
}

TEST(KnnTest, CosineMetricIgnoresMagnitude) {
  // Same direction, wildly different norms.
  Tensor ref = Tensor::FromVector(Shape{2, 2}, {100.0f, 0.0f, 0.0f, 100.0f});
  std::vector<int64_t> ref_labels = {0, 1};
  Tensor query = Tensor::FromVector(Shape{1, 2}, {0.01f, 0.0f});
  KnnOptions o;
  o.k = 1;
  o.metric = KnnMetric::kCosine;
  auto r = KnnClassify(ref, ref_labels, query, {0}, o);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->predictions[0], 0);
}

TEST(KnnTest, ErrorsAreStatus) {
  Tensor ref = Tensor::Ones(Shape{2, 3});
  Tensor query = Tensor::Ones(Shape{1, 3});
  KnnOptions o;
  o.k = 0;
  EXPECT_FALSE(KnnClassify(ref, {0, 1}, query, {0}, o).ok());
  o.k = 1;
  // Dim mismatch.
  EXPECT_FALSE(
      KnnClassify(ref, {0, 1}, Tensor::Ones(Shape{1, 4}), {0}, o).ok());
  // Label count mismatch.
  EXPECT_FALSE(KnnClassify(ref, {0}, query, {0}, o).ok());
  // Empty reference.
  EXPECT_FALSE(
      KnnClassify(Tensor::Zeros(Shape{0, 3}), {}, query, {0}, o).ok());
  // Non-matrix features.
  EXPECT_FALSE(
      KnnClassify(Tensor::Ones(Shape{3}), {0, 1, 2}, query, {0}, o).ok());
}

TEST(KnnTest, AccuracyCountsCorrectFraction) {
  Tensor ref = Tensor::FromVector(Shape{2, 1}, {0.0f, 10.0f});
  Tensor query = Tensor::FromVector(Shape{4, 1}, {0.1f, 0.2f, 9.9f, 9.8f});
  KnnOptions o;
  o.k = 1;
  // Intentionally wrong labels for half the queries.
  auto r = KnnClassify(ref, {0, 1}, query, {0, 1, 1, 0}, o);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->accuracy, 0.5);
}

// The selection KnnClassify replaced, as an oracle: every distance, a full
// sort in (dist, index) order, then a majority vote over the first k that
// breaks ties toward the nearest member's class. Dot products come from
// GemmReference, which the packed engine matches bit for bit.
std::vector<int64_t> FullSortKnn(const Tensor& ref,
                                 const std::vector<int64_t>& ref_labels,
                                 const Tensor& query, int k,
                                 KnnMetric metric) {
  const int64_t m = ref.dim(0), d = ref.dim(1), n = query.dim(0);
  std::vector<float> dots(static_cast<size_t>(n * m));
  GemmReference(query.data(), false, ref.data(), true, dots.data(), n, d, m,
                /*accumulate=*/false);
  auto norm = [d](const float* row) {
    double acc = 0;
    for (int64_t j = 0; j < d; ++j) acc += static_cast<double>(row[j]) * row[j];
    return acc;
  };
  std::vector<int64_t> predictions;
  for (int64_t q = 0; q < n; ++q) {
    const double qn = norm(query.data() + q * d);
    std::vector<std::pair<double, int64_t>> all;
    for (int64_t i = 0; i < m; ++i) {
      const double rn = norm(ref.data() + i * d);
      const double dot = dots[static_cast<size_t>(q * m + i)];
      all.emplace_back(
          metric == KnnMetric::kL2
              ? qn + rn - 2.0 * dot
              : 1.0 - dot / (std::sqrt(std::max(qn, 1e-12)) *
                             std::sqrt(std::max(rn, 1e-12))),
          i);
    }
    std::sort(all.begin(), all.end());
    std::map<int64_t, int> votes;
    for (int i = 0; i < k; ++i) ++votes[ref_labels[all[i].second]];
    int best_count = -1;
    int64_t best = -1;
    for (int i = 0; i < k; ++i) {
      const int64_t label = ref_labels[all[i].second];
      if (votes[label] > best_count) {
        best_count = votes[label];
        best = label;
      }
    }
    predictions.push_back(best);
  }
  return predictions;
}

TEST(KnnTest, MatchesFullSortOracleUnderExactTiesAndKEqualsM) {
  // Rows 0..14 appear twice, under different labels, so equal distances
  // are decided by index alone; some queries sit exactly on a reference
  // row. k runs up to m, where every reference row votes.
  Rng rng(21);
  const int64_t half = 15, d = 6;
  Tensor base = RandomNormal(Shape{half, d}, rng);
  Tensor ref = ConcatRows({base, base});
  std::vector<int64_t> ref_labels;
  for (int64_t i = 0; i < 2 * half; ++i) ref_labels.push_back((i * 7) % 4);
  Tensor query = ConcatRows({RandomNormal(Shape{9, d}, rng),
                             GatherRows(base, {0, 3, 14})});
  const std::vector<int64_t> query_labels(12, 0);
  for (KnnMetric metric : {KnnMetric::kL2, KnnMetric::kCosine}) {
    for (int k : {1, 2, 3, 5, 8, static_cast<int>(2 * half)}) {
      KnnOptions o;
      o.k = k;
      o.metric = metric;
      auto r = KnnClassify(ref, ref_labels, query, query_labels, o);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->predictions,
                FullSortKnn(ref, ref_labels, query, k, metric))
          << "k=" << k << " cosine=" << (metric == KnnMetric::kCosine);
      // One query at a time takes the one-row GEMM route; same answers.
      for (int64_t q = 0; q < query.dim(0); ++q) {
        auto one = KnnClassify(ref, ref_labels, query.SliceRows(q, q + 1),
                               {0}, o);
        ASSERT_TRUE(one.ok());
        EXPECT_EQ(one->predictions[0],
                  r->predictions[static_cast<size_t>(q)]);
      }
    }
  }
}

}  // namespace
}  // namespace eval
}  // namespace metalora
