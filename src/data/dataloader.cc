#include "data/dataloader.h"

#include <utility>

#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace data {

DataLoader::DataLoader(const MultiTaskDataset& dataset, int64_t batch_size,
                       bool shuffle, uint64_t seed)
    : dataset_(&dataset),
      batch_size_(batch_size),
      shuffle_(shuffle),
      rng_(seed) {
  ML_CHECK_GT(batch_size_, 0);
  ML_CHECK_GT(dataset.size(), 0) << "DataLoader over empty dataset";
  order_.resize(static_cast<size_t>(dataset.size()));
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int64_t>(i);
  if (shuffle_) rng_.Shuffle(order_);
}

int64_t DataLoader::num_batches() const {
  return (dataset_->size() + batch_size_ - 1) / batch_size_;
}

Batch DataLoader::GetBatch(int64_t b) const {
  ML_CHECK(b >= 0 && b < num_batches()) << "batch index out of range";
  const int64_t lo = b * batch_size_;
  const int64_t hi = std::min<int64_t>(dataset_->size(), lo + batch_size_);
  return GetBatchSlice(b, 0, hi - lo);
}

Batch DataLoader::GetBatchSlice(int64_t b, int64_t lo, int64_t hi) const {
  ML_CHECK(b >= 0 && b < num_batches()) << "batch index out of range";
  const int64_t batch_lo = b * batch_size_;
  const int64_t batch_hi =
      std::min<int64_t>(dataset_->size(), batch_lo + batch_size_);
  ML_CHECK(lo >= 0 && lo <= hi && batch_lo + hi <= batch_hi)
      << "batch slice [" << lo << ", " << hi << ") out of range for batch "
      << b << " of size " << (batch_hi - batch_lo);
  if (lo == hi) return Batch{};
  std::vector<int64_t> rows(order_.begin() + batch_lo + lo,
                            order_.begin() + batch_lo + hi);
  Batch batch;
  batch.images = GatherRows(dataset_->images, rows);
  batch.labels.reserve(rows.size());
  batch.task_ids.reserve(rows.size());
  for (int64_t r : rows) {
    batch.labels.push_back(dataset_->labels[static_cast<size_t>(r)]);
    batch.task_ids.push_back(dataset_->task_ids[static_cast<size_t>(r)]);
  }
  batch.rows = std::move(rows);
  return batch;
}

void DataLoader::Reshuffle() {
  if (shuffle_) rng_.Shuffle(order_);
}

void ShardRange(int64_t n, int shards, int shard, int64_t* lo, int64_t* hi) {
  ML_CHECK_GE(n, 0);
  ML_CHECK_GT(shards, 0);
  ML_CHECK(shard >= 0 && shard < shards) << "shard index out of range";
  const int64_t base = n / shards;
  const int64_t rem = n % shards;
  const int64_t s = shard;
  *lo = s * base + std::min<int64_t>(s, rem);
  *hi = *lo + base + (s < rem ? 1 : 0);
}

}  // namespace data
}  // namespace metalora
