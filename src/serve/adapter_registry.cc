#include "serve/adapter_registry.h"

#include <utility>

#include "autograd/variable.h"
#include "common/check.h"

namespace metalora {
namespace serve {

AdapterRegistry::AdapterRegistry(AdapterRegistryOptions options)
    : options_(options) {
  ML_CHECK_GT(options_.residency_budget, 0);
}

Status AdapterRegistry::Register(const std::string& name,
                                 const core::AdapterSpec& spec,
                                 const std::string& checkpoint_path) {
  if (name.empty()) return Status::InvalidArgument("empty adapter name");
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(name)) {
    return Status::InvalidArgument("adapter '" + name +
                                   "' already registered");
  }
  auto entry = std::make_unique<Entry>();
  entry->spec = spec;
  entry->checkpoint_path = checkpoint_path;
  entries_.emplace(name, std::move(entry));
  ++stats_.registered;
  return Status::OK();
}

Result<std::shared_ptr<ResidentAdapter>> AdapterRegistry::LoadInstance(
    const core::AdapterSpec& spec, const std::string& path,
    uint64_t version) {
  ML_ASSIGN_OR_RETURN(std::unique_ptr<core::Adapter> adapter,
                      core::BuildAdapter(spec));
  ML_RETURN_IF_ERROR(adapter->LoadCheckpoint(path));
  // Serving semantics: eval mode, no grads wanted through the registry.
  adapter->SetTraining(false);
  auto handle = std::make_shared<ResidentAdapter>();
  handle->conditioning_cache = adapter->conditioning_cache();
  handle->adapter = std::move(adapter);
  handle->version = version;
  return handle;
}

void AdapterRegistry::InstallLocked(Entry* entry,
                                    std::shared_ptr<ResidentAdapter> handle) {
  while (resident_count_ >= options_.residency_budget) {
    Entry* coldest = nullptr;
    for (auto& [n, e] : entries_) {
      if (e->resident == nullptr || e.get() == entry) continue;
      if (coldest == nullptr || e->last_used_tick < coldest->last_used_tick) {
        coldest = e.get();
      }
    }
    if (coldest == nullptr) break;  // only `entry` itself is resident
    // Dropping the shared_ptr is the whole eviction: weights and the
    // ConditioningCache free once the last in-flight batch releases its
    // snapshot. Catalog entry and checkpoint path stay.
    coldest->resident.reset();
    --resident_count_;
    ++stats_.evictions;
  }
  if (entry->resident == nullptr) ++resident_count_;
  entry->resident = std::move(handle);
  entry->last_used_tick = ++tick_;
}

Result<std::shared_ptr<ResidentAdapter>> AdapterRegistry::Acquire(
    const std::string& name, int64_t request_rows) {
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("no adapter registered as '" + name + "'");
    }
    entry = it->second.get();
    if (entry->resident != nullptr) {
      entry->last_used_tick = ++tick_;
      stats_.request_hits += request_rows;
      return entry->resident;
    }
  }
  // Cold path. load_mu collapses concurrent cold Acquires of one tenant
  // into a single checkpoint read; mu_ is dropped during the load so
  // resident tenants keep serving while the bytes stream in.
  std::lock_guard<std::mutex> load_lock(entry->load_mu);
  core::AdapterSpec spec;
  std::string path;
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->resident != nullptr) {
      // Another thread finished the load while we waited on load_mu.
      entry->last_used_tick = ++tick_;
      stats_.request_hits += request_rows;
      return entry->resident;
    }
    spec = entry->spec;
    path = entry->checkpoint_path;
    version = entry->version;
  }
  auto loaded = LoadInstance(spec, path, version);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.request_misses += request_rows;
  if (!loaded.ok()) {
    ++stats_.load_failures;
    return loaded.status();
  }
  ++stats_.loads;
  InstallLocked(entry, std::move(loaded).value());
  return entry->resident;
}

Status AdapterRegistry::Publish(const std::string& name,
                                const std::string& checkpoint_path) {
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("no adapter registered as '" + name + "'");
    }
    entry = it->second.get();
  }
  std::lock_guard<std::mutex> load_lock(entry->load_mu);
  core::AdapterSpec spec;
  uint64_t new_version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spec = entry->spec;
    new_version = entry->version + 1;
  }
  // Loaded off to the side: the current version keeps serving while the
  // new checkpoint streams in, and keeps serving untouched if it is torn.
  auto loaded = LoadInstance(spec, checkpoint_path, new_version);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!loaded.ok()) {
      ++stats_.load_failures;
      return loaded.status();
    }
    ++stats_.loads;
    entry->checkpoint_path = checkpoint_path;
    entry->version = new_version;
    if (entry->resident != nullptr) {
      // The RCU swap: in-flight batches hold their own shared_ptr to the
      // old instance and finish on it; new Acquires see the new one.
      entry->resident = std::move(loaded).value();
      entry->last_used_tick = ++tick_;
      ++stats_.swaps;
    } else {
      InstallLocked(entry, std::move(loaded).value());
    }
  }
  // Every conditioning-cache entry computed against the old weights is
  // stamped with the pre-swap parameter version; one bump retires them all
  // atomically with the swap.
  autograd::BumpParameterVersion();
  return Status::OK();
}

Status AdapterRegistry::Evict(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no adapter registered as '" + name + "'");
  }
  if (it->second->resident != nullptr) {
    it->second->resident.reset();
    --resident_count_;
    ++stats_.evictions;
  }
  return Status::OK();
}

Result<uint64_t> AdapterRegistry::CurrentVersion(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no adapter registered as '" + name + "'");
  }
  return it->second->version;
}

bool AdapterRegistry::IsRegistered(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(name) > 0;
}

bool AdapterRegistry::IsResident(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() && it->second->resident != nullptr;
}

AdapterRegistryStats AdapterRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  AdapterRegistryStats snapshot = stats_;
  snapshot.resident = resident_count_;
  return snapshot;
}

}  // namespace serve
}  // namespace metalora
