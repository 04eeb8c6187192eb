// Multi-tenant adapter registry: a named catalog of checkpoint-backed
// adapters with budgeted residency, lazy loading, and RCU-style hot-swap.
//
// MetaLoRA's premise is one conditioned adapter per task/tenant; serving
// "millions of users" means thousands of named adapters with a Zipf
// popularity curve, of which only a small working set can hold weights in
// RAM at once. The registry separates the *catalog* (cheap, permanent:
// an AdapterSpec plus a checkpoint path per tenant) from *residency*
// (expensive, budgeted: the constructed adapter with loaded weights and a
// live ConditioningCache):
//
//   Register(name, spec, path)   catalog only — nothing is loaded
//   Acquire(name)                resident handle; lazily builds the adapter
//                                from its spec and loads the checkpoint on
//                                first use, evicting the least-recently-
//                                used resident tenant when the residency
//                                budget is exceeded
//   Publish(name, new_path)      RCU hot-swap: the new version is built and
//                                loaded off to the side while the old one
//                                keeps serving, then the entry's shared_ptr
//                                is swapped under the catalog lock
//
// RCU discipline: Acquire returns a shared_ptr<ResidentAdapter> snapshot.
// Readers (server workers) run forwards on their snapshot without holding
// any registry lock, so an eviction or publish never tears an in-flight
// forward — the old instance's weights are freed when the last in-flight
// reference drops. Evicted tenants keep their catalog entry and checkpoint
// path; a later Acquire rebuilds the adapter from the same spec and bytes,
// which makes reloaded outputs bit-identical to never-evicted ones
// (BuildAdapter is deterministic and checkpoints round-trip bitwise).
//
// Cache consistency across swaps: Publish bumps the global parameter
// version after the swap. Any surviving conditioning-cache entries are
// stamped with the version they were computed under, so everything
// computed against the old weights goes stale atomically with the swap;
// the new instance starts with an empty ConditioningCache. Each entry
// carries a version counter (bumped per Publish) surfaced on the handle,
// which makes the swap point observable in tests and benches.
//
// Failure isolation: a torn or missing checkpoint fails the Acquire with
// Corruption/IOError and leaves the entry non-resident (load_failures
// counts it); a failed Publish leaves the old version serving untouched.
#ifndef METALORA_SERVE_ADAPTER_REGISTRY_H_
#define METALORA_SERVE_ADAPTER_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/adapter_config.h"
#include "core/adapter_factory.h"

namespace metalora {
namespace serve {

struct AdapterRegistryOptions {
  /// Maximum number of tenants holding loaded weights at once. Acquiring a
  /// non-resident tenant at the budget evicts the least-recently-used
  /// resident one.
  int64_t residency_budget = 32;
};

/// One resident (loaded) adapter version. Immutable after load except for
/// the adapter's internal caches; shared between the registry and every
/// in-flight batch that acquired it.
struct ResidentAdapter {
  std::unique_ptr<core::Adapter> adapter;
  /// The adapter's own ΔW/seed cache; nullptr for kinds without one.
  core::ConditioningCache* conditioning_cache = nullptr;
  /// The entry's publish counter at load time (1 for the initial version).
  uint64_t version = 0;
  /// Serializes SetFeatures + Forward on this instance (adapters bind
  /// features statefully). During a hot-swap the old and new instances have
  /// independent locks, so draining forwards never block the new version.
  std::mutex forward_mu;
};

struct AdapterRegistryStats {
  int64_t registered = 0;  // catalog size (gauge)
  int64_t resident = 0;    // tenants currently holding weights (gauge)
  /// Request-weighted residency accounting: Acquire(name, rows) adds rows
  /// to hits when the tenant was already resident, to misses when it had
  /// to be loaded. hit-rate = hits / (hits + misses).
  int64_t request_hits = 0;
  int64_t request_misses = 0;
  int64_t loads = 0;          // successful checkpoint loads (lazy + publish)
  int64_t load_failures = 0;  // failed loads (missing/torn checkpoint)
  int64_t evictions = 0;      // residents dropped for budget
  int64_t swaps = 0;          // Publishes that replaced a resident version

  double ResidencyHitRate() const {
    const int64_t total = request_hits + request_misses;
    return total > 0
               ? static_cast<double>(request_hits) / static_cast<double>(total)
               : 0.0;
  }
};

class AdapterRegistry {
 public:
  explicit AdapterRegistry(AdapterRegistryOptions options);

  AdapterRegistry(const AdapterRegistry&) = delete;
  AdapterRegistry& operator=(const AdapterRegistry&) = delete;

  /// Catalogs `name` as buildable-from-`spec` with weights at
  /// `checkpoint_path`. Loads nothing. InvalidArgument on duplicates.
  Status Register(const std::string& name, const core::AdapterSpec& spec,
                  const std::string& checkpoint_path);

  /// Returns a snapshot handle to the tenant's current resident version,
  /// lazily loading (and evicting under budget) as needed. `request_rows`
  /// weights the hit/miss accounting by the number of requests this
  /// Acquire serves. NotFound for unregistered names; the checkpoint's
  /// IOError/Corruption/InvalidArgument passes through on a failed load.
  Result<std::shared_ptr<ResidentAdapter>> Acquire(const std::string& name,
                                                   int64_t request_rows = 1);

  /// RCU hot-swap: builds the tenant's adapter from its spec, loads
  /// `checkpoint_path` off to the side, then atomically replaces the
  /// resident version (installing it if the tenant was cold) and bumps the
  /// entry's version counter and the global parameter version. In-flight
  /// forwards finish on the old instance; a failed load leaves the old
  /// version serving and the catalog unchanged.
  Status Publish(const std::string& name, const std::string& checkpoint_path);

  /// Drops the tenant's weights (catalog entry stays). No-op when cold.
  /// Counted as an eviction; primarily for tests and admin tooling.
  Status Evict(const std::string& name);

  /// The entry's publish counter (1 after Register's first load). NotFound
  /// for unregistered names.
  Result<uint64_t> CurrentVersion(const std::string& name) const;

  bool IsRegistered(const std::string& name) const;
  bool IsResident(const std::string& name) const;

  AdapterRegistryStats stats() const;

 private:
  struct Entry {
    core::AdapterSpec spec;
    std::string checkpoint_path;
    uint64_t version = 1;         // bumped by Publish
    uint64_t last_used_tick = 0;  // LRU clock stamp
    std::shared_ptr<ResidentAdapter> resident;  // null when cold
    /// Serializes cold loads and publishes for this entry so concurrent
    /// cold Acquires collapse into one checkpoint read. Never held while
    /// mu_ is held (always taken first), and never held during forwards.
    std::mutex load_mu;
  };

  /// Builds + loads one instance (no locks held by caller requirement:
  /// called outside mu_).
  static Result<std::shared_ptr<ResidentAdapter>> LoadInstance(
      const core::AdapterSpec& spec, const std::string& path,
      uint64_t version);

  /// Installs `handle` as `entry`'s resident version, evicting LRU
  /// residents (never `entry` itself) while over budget. Caller holds mu_.
  void InstallLocked(Entry* entry, std::shared_ptr<ResidentAdapter> handle);

  AdapterRegistryOptions options_;

  mutable std::mutex mu_;
  /// unique_ptr values keep Entry addresses stable across rehashes, so
  /// Acquire can drop mu_ during a load while holding the entry pointer.
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
  int64_t resident_count_ = 0;
  uint64_t tick_ = 0;
  AdapterRegistryStats stats_;
};

}  // namespace serve
}  // namespace metalora

#endif  // METALORA_SERVE_ADAPTER_REGISTRY_H_
