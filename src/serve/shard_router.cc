#include "serve/shard_router.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace metalora {
namespace serve {

namespace {

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= static_cast<uint64_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

ShardRouter::ShardRouter(ShardRouterOptions options, AdapterRegistry* registry)
    : options_(std::move(options)), registry_(registry) {
  ML_CHECK(registry_ != nullptr);
  ML_CHECK_GT(options_.num_shards, 0);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(
        std::make_unique<AdapterServer>(options_.server_options));
  }
}

ShardRouter::~ShardRouter() { Shutdown(); }

int ShardRouter::ShardOf(const std::string& tenant) const {
  return static_cast<int>(Fnv1a64(tenant) %
                          static_cast<uint64_t>(options_.num_shards));
}

Status ShardRouter::RegisterTenant(const std::string& tenant) {
  if (tenant.empty()) return Status::InvalidArgument("empty tenant name");
  if (sessions_.count(tenant)) {
    return Status::InvalidArgument("tenant '" + tenant +
                                   "' already has a session");
  }
  const int shard = ShardOf(tenant);
  sessions_[tenant] = shards_[static_cast<size_t>(shard)]
                          ->RegisterTenantSession(registry_, tenant);
  return Status::OK();
}

void ShardRouter::Start() {
  for (auto& shard : shards_) shard->Start();
}

Result<std::future<Tensor>> ShardRouter::Submit(const std::string& tenant,
                                                Tensor features, Tensor x) {
  auto it = sessions_.find(tenant);
  if (it == sessions_.end()) {
    return Status::NotFound("no session for tenant '" + tenant + "'");
  }
  return shards_[static_cast<size_t>(ShardOf(tenant))]->Submit(
      it->second, std::move(features), std::move(x));
}

Result<bool> ShardRouter::TrySubmit(const std::string& tenant, Tensor features,
                                    Tensor x, std::future<Tensor>* out) {
  auto it = sessions_.find(tenant);
  if (it == sessions_.end()) {
    return Status::NotFound("no session for tenant '" + tenant + "'");
  }
  return shards_[static_cast<size_t>(ShardOf(tenant))]->TrySubmit(
      it->second, std::move(features), std::move(x), out);
}

void ShardRouter::Shutdown() {
  for (auto& shard : shards_) shard->Shutdown();
}

ServeStats ShardRouter::shard_stats(int shard) const {
  ML_CHECK(shard >= 0 && shard < options_.num_shards);
  return shards_[static_cast<size_t>(shard)]->stats();
}

ServeStats ShardRouter::aggregated_stats() const {
  ServeStats total;
  for (const auto& shard : shards_) {
    const ServeStats s = shard->stats();
    total.requests_completed += s.requests_completed;
    total.requests_rejected += s.requests_rejected;
    total.requests_failed += s.requests_failed;
    total.batches_executed += s.batches_executed;
    total.batched_rows += s.batched_rows;
    total.max_batch_size = std::max(total.max_batch_size, s.max_batch_size);
    total.size_flushes += s.size_flushes;
    total.deadline_flushes += s.deadline_flushes;
    total.drain_flushes += s.drain_flushes;
    total.request_queue_peak =
        std::max(total.request_queue_peak, s.request_queue_peak);
    total.batch_queue_peak =
        std::max(total.batch_queue_peak, s.batch_queue_peak);
    total.adapter_cache_hits += s.adapter_cache_hits;
    total.adapter_cache_misses += s.adapter_cache_misses;
    total.adapter_cache_evictions += s.adapter_cache_evictions;
    total.latencies_us.insert(total.latencies_us.end(), s.latencies_us.begin(),
                              s.latencies_us.end());
  }
  return total;
}

}  // namespace serve
}  // namespace metalora
