// Mini-batch iteration over an in-memory MultiTaskDataset.
#ifndef METALORA_DATA_DATALOADER_H_
#define METALORA_DATA_DATALOADER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/task_suite.h"

namespace metalora {
namespace data {

struct Batch {
  Tensor images;                  // [B, C, H, W]
  std::vector<int64_t> labels;    // size B
  std::vector<int64_t> task_ids;  // size B
  std::vector<int64_t> rows;      // size B: each sample's dataset row
  int64_t size() const { return images.defined() ? images.dim(0) : 0; }
};

class DataLoader {
 public:
  /// Keeps a reference to `dataset`; the dataset must outlive the loader.
  DataLoader(const MultiTaskDataset& dataset, int64_t batch_size, bool shuffle,
             uint64_t seed);

  int64_t num_batches() const;

  /// The b-th batch of the current epoch (the last batch may be smaller).
  Batch GetBatch(int64_t b) const;

  /// Rows [lo, hi) of the b-th batch (offsets within the batch): the shard
  /// view the data-parallel trainer hands each replica. GetBatchSlice(b, 0,
  /// size_of_b) == GetBatch(b); an empty range returns an empty Batch
  /// (undefined images). Thread-safe for concurrent calls — the sample
  /// order is fixed by the seed and Reshuffle() calls alone, never by who
  /// reads it.
  Batch GetBatchSlice(int64_t b, int64_t lo, int64_t hi) const;

  /// Reshuffles sample order (call once per epoch when shuffle is enabled).
  void Reshuffle();

  int64_t dataset_size() const { return dataset_->size(); }

 private:
  const MultiTaskDataset* dataset_;
  int64_t batch_size_;
  bool shuffle_;
  Rng rng_;
  std::vector<int64_t> order_;
};

/// Contiguous near-equal split of [0, n) into `shards` ranges: shard s gets
/// [*lo, *hi), sizes differ by at most one (larger shards first), and the
/// ranges partition [0, n) exactly — no sample dropped or duplicated, even
/// when n < shards (trailing shards come back empty). Pure arithmetic in
/// (n, shards, shard): independent of thread count, machine, or call order,
/// which is what makes replica batch-splits part of the deterministic
/// numerical program.
void ShardRange(int64_t n, int shards, int shard, int64_t* lo, int64_t* hi);

}  // namespace data
}  // namespace metalora

#endif  // METALORA_DATA_DATALOADER_H_
