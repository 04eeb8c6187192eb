// Conditioning-keyed cache for MetaLoRA's generated weights.
//
// MetaLoRA recomputes the mapping-net seed c/C (paper Eq. 6/7) and the rank
// contraction on every forward, even when the conditioning features are
// unchanged — the common case in repeated evaluation sweeps, where the same
// extracted features drive many adapter forwards. Each adapter instance
// owns one ConditioningCache keyed on the feature tensor (FNV-1a checksum
// for the bucket, full byte comparison on hit, so a hash collision can
// never alias two feature sets) plus a per-adapter salt for isolation.
//
// Invalidation: entries are stamped with the parameter version captured
// *before* the cold path computed them (optimizers bump
// autograd::GlobalParameterVersion() on every Step()), so any mapping-net
// or factor update makes every cached entry stale. Stale entries are
// dropped on lookup, and an insert whose captured version is no longer
// current is skipped outright — a Step() landing between lookup and insert
// must never stamp a stale seed with the new version.
//
// Eviction: when the map is full, inserting a new key evicts the single
// oldest entry (insertion-order FIFO), so a working set at or above
// capacity degrades by one miss per overflow instead of collapsing to a
// 0% hit rate the way wholesale clearing did.
//
// Bit-identity contract: entries store heap Clone()s of tensors the cold
// path computed, and hits return those exact bytes — a warm forward replays
// the identical downstream op sequence on identical inputs, so outputs are
// byte-identical to the cold path.
//
// Thread safety: Lookup/Insert/Clear are mutex-protected; cached tensors
// are immutable after insert, so concurrent readers (server workers) may
// read the same entry's tensors without synchronization.
#ifndef METALORA_CORE_CONDITIONING_CACHE_H_
#define METALORA_CORE_CONDITIONING_CACHE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "autograd/variable.h"
#include "tensor/tensor.h"

namespace metalora {
namespace core {

/// FNV-1a over the feature bytes, shape, and a per-adapter salt.
uint64_t ConditioningChecksum(const Tensor& features, uint64_t salt);

/// A fresh process-unique salt; each adapter instance takes one at
/// construction so identical features never cross adapter boundaries.
uint64_t NextAdapterCacheSalt();

/// One cached generation: the mapping-net seed (c [N,R] or core C [N,R,R])
/// and, for TR variants, the contracted per-sample recovery weights that
/// only depend on (features, factors).
struct ConditioningEntry {
  Tensor features;  // heap clone; verified bytewise on lookup
  Tensor seed;      // heap clone of the generated seed
  Tensor delta;     // heap clone of the contracted ΔW form; may be undefined
  uint64_t param_version = 0;
};

struct ConditioningCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t invalidations = 0;  // entries dropped because a param changed
  int64_t evictions = 0;      // entries dropped to make room (FIFO)
  int64_t stale_insert_skips = 0;  // inserts dropped: version moved mid-compute
};

class ConditioningCache {
 public:
  /// `max_entries` bounds memory; on overflow the oldest entry (insertion
  /// order) is evicted to make room for the new one.
  explicit ConditioningCache(int64_t max_entries = 64);

  /// True and fills `out` when `key` holds an entry whose features match
  /// `features` bytewise and whose stamp is the current parameter version.
  /// Stale entries are erased (counted as invalidation + miss).
  bool Lookup(uint64_t key, const Tensor& features, ConditioningEntry* out);

  /// Stores heap clones of (features, seed, delta) under `key`, stamped
  /// with `param_version` — the GlobalParameterVersion() the caller read
  /// *before* computing `seed`. If the global version has moved since (an
  /// optimizer Step() landed mid-compute), the entry is stale and the
  /// insert is skipped (counted in stale_insert_skips). `delta` may be
  /// undefined.
  void Insert(uint64_t key, const Tensor& features, const Tensor& seed,
              const Tensor& delta, uint64_t param_version);

  void Clear();

  ConditioningCacheStats stats() const;
  int64_t size() const;
  int64_t max_entries() const { return max_entries_; }

  /// Seed-only convenience used by the CP adapters: returns the cached seed
  /// for `features` when valid, otherwise computes it via `compute` and
  /// inserts. Grad-enabled calls bypass the cache entirely — training must
  /// differentiate through the mapping net, so a detached cached seed would
  /// be wrong there.
  autograd::Variable SeedOrCompute(
      uint64_t salt, const autograd::Variable& features,
      const std::function<autograd::Variable()>& compute);

  /// Seed-plus-ΔW convenience used by the TR adapters: returns the cached
  /// `delta` (the contracted recovery weights) for `features` when valid,
  /// otherwise generates the seed via `seed_fn`, contracts it via
  /// `contract`, and inserts both. Grad-enabled calls bypass the cache and
  /// return contract(seed_fn()), as in SeedOrCompute.
  autograd::Variable DeltaOrCompute(
      uint64_t salt, const autograd::Variable& features,
      const std::function<autograd::Variable()>& seed_fn,
      const std::function<autograd::Variable(const autograd::Variable&)>&
          contract);

 private:
  /// Drops FIFO-oldest entries until a new key fits. Caller holds mu_.
  void EvictForInsertLocked();

  mutable std::mutex mu_;
  int64_t max_entries_;
  std::unordered_map<uint64_t, ConditioningEntry> entries_;
  /// Keys in insertion order. May hold keys already erased by invalidation
  /// (skipped lazily during eviction); never holds duplicates of live keys,
  /// because overwriting an existing key keeps its original queue position.
  std::deque<uint64_t> insert_order_;
  ConditioningCacheStats stats_;
};

}  // namespace core
}  // namespace metalora

#endif  // METALORA_CORE_CONDITIONING_CACHE_H_
