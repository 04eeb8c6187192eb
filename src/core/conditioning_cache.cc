#include "core/conditioning_cache.h"

#include <atomic>
#include <cstring>

#include "autograd/runtime_context.h"
#include "autograd/variable.h"

namespace metalora {
namespace core {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t FnvMix(uint64_t h, const unsigned char* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

}  // namespace

uint64_t ConditioningChecksum(const Tensor& features, uint64_t salt) {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, reinterpret_cast<const unsigned char*>(&salt), sizeof(salt));
  for (int i = 0; i < features.rank(); ++i) {
    const int64_t d = features.dim(i);
    h = FnvMix(h, reinterpret_cast<const unsigned char*>(&d), sizeof(d));
  }
  h = FnvMix(h, reinterpret_cast<const unsigned char*>(features.data()),
             static_cast<size_t>(features.numel()) * sizeof(float));
  return h;
}

uint64_t NextAdapterCacheSalt() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

ConditioningCache::ConditioningCache(int64_t max_entries)
    : max_entries_(max_entries) {}

bool ConditioningCache::Lookup(uint64_t key, const Tensor& features,
                               ConditioningEntry* out) {
  const uint64_t version = autograd::GlobalParameterVersion();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  if (it->second.param_version != version) {
    entries_.erase(it);
    ++stats_.invalidations;
    ++stats_.misses;
    return false;
  }
  if (!SameBytes(it->second.features, features)) {
    // Checksum collision between distinct feature sets: treat as a miss
    // rather than ever returning a wrong seed.
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  *out = it->second;
  return true;
}

void ConditioningCache::Insert(uint64_t key, const Tensor& features,
                               const Tensor& seed, const Tensor& delta,
                               uint64_t param_version) {
  std::lock_guard<std::mutex> lock(mu_);
  // A Step() landed between the caller's version capture and this insert:
  // the seed was computed from the old parameters, so caching it under any
  // stamp would serve stale bytes. Drop it.
  if (autograd::GlobalParameterVersion() != param_version) {
    ++stats_.stale_insert_skips;
    return;
  }
  ConditioningEntry entry;
  entry.features = features.Clone();
  entry.seed = seed.Clone();
  if (delta.defined()) entry.delta = delta.Clone();
  entry.param_version = param_version;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second = std::move(entry);  // overwrite keeps the queue position
    return;
  }
  EvictForInsertLocked();
  entries_.emplace(key, std::move(entry));
  insert_order_.push_back(key);
}

void ConditioningCache::EvictForInsertLocked() {
  while (static_cast<int64_t>(entries_.size()) >= max_entries_ &&
         !insert_order_.empty()) {
    const uint64_t victim = insert_order_.front();
    insert_order_.pop_front();
    // Keys erased by lookup invalidation linger in the queue; skipping them
    // here is not an eviction.
    if (entries_.erase(victim) > 0) ++stats_.evictions;
  }
}

void ConditioningCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  insert_order_.clear();
}

ConditioningCacheStats ConditioningCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int64_t ConditioningCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

autograd::Variable ConditioningCache::SeedOrCompute(
    uint64_t salt, const autograd::Variable& features,
    const std::function<autograd::Variable()>& compute) {
  if (autograd::GradEnabled()) return compute();
  const uint64_t key = ConditioningChecksum(features.value(), salt);
  ConditioningEntry hit;
  if (Lookup(key, features.value(), &hit)) {
    return autograd::Variable(hit.seed, /*requires_grad=*/false);
  }
  // Capture the version before running compute(): if an optimizer Step()
  // lands while the seed is being generated, Insert sees the mismatch and
  // drops the now-stale result instead of stamping it with the new version.
  const uint64_t version = autograd::GlobalParameterVersion();
  autograd::Variable seed = compute();
  Insert(key, features.value(), seed.value(), Tensor(), version);
  return seed;
}

autograd::Variable ConditioningCache::DeltaOrCompute(
    uint64_t salt, const autograd::Variable& features,
    const std::function<autograd::Variable()>& seed_fn,
    const std::function<autograd::Variable(const autograd::Variable&)>&
        contract) {
  if (autograd::GradEnabled()) return contract(seed_fn());
  const uint64_t key = ConditioningChecksum(features.value(), salt);
  ConditioningEntry hit;
  if (Lookup(key, features.value(), &hit)) {
    return autograd::Variable(hit.delta, /*requires_grad=*/false);
  }
  // Same before-compute version capture as SeedOrCompute.
  const uint64_t version = autograd::GlobalParameterVersion();
  autograd::Variable seed = seed_fn();
  autograd::Variable delta = contract(seed);
  Insert(key, features.value(), seed.value(), delta.value(), version);
  return delta;
}

}  // namespace core
}  // namespace metalora
