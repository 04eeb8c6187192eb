// Tenant -> shard routing over a pool of AdapterServer instances.
//
// One AdapterServer scales to the working set one micro-batcher thread can
// keep fed; beyond that the natural unit of scale-out is the tenant, since
// requests for different tenants never share a batch anyway. The router
// hashes tenant names (FNV-1a 64) across K shards, each a full
// AdapterServer pipeline (own batcher, own workers, own queues) backed by
// the one shared AdapterRegistry. The hash is stable across runs and
// independent of registration order, so a tenant's requests always land on
// the same shard — which preserves the per-tenant batching and conditioning-
// cache locality — and re-sharding is a pure K change.
//
// The registry stays global rather than per-shard on purpose: residency is
// a memory budget, and memory is shared across shards; a global LRU evicts
// the globally coldest tenant instead of K locally-coldest ones.
#ifndef METALORA_SERVE_SHARD_ROUTER_H_
#define METALORA_SERVE_SHARD_ROUTER_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/adapter_registry.h"
#include "serve/adapter_server.h"

namespace metalora {
namespace serve {

struct ShardRouterOptions {
  /// Number of AdapterServer instances to spread tenants across.
  int num_shards = 2;
  /// Applied to every shard (workers, queues, batching).
  AdapterServerOptions server_options;
};

class ShardRouter {
 public:
  /// The registry must outlive the router; tenants are resolved through it
  /// lazily per batch (see AdapterServer::RegisterTenantSession).
  ShardRouter(ShardRouterOptions options, AdapterRegistry* registry);
  ~ShardRouter();  // implies Shutdown()

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// The shard `tenant` routes to: stable FNV-1a hash of the name modulo
  /// num_shards. Deterministic across runs and processes.
  int ShardOf(const std::string& tenant) const;

  /// Opens a registry-backed session for `tenant` on its home shard. Call
  /// before Start(); InvalidArgument if the tenant already has a session.
  /// The tenant need not be Register()ed with the registry yet, but its
  /// requests fail until it is.
  Status RegisterTenant(const std::string& tenant);

  /// Starts every shard's pipeline.
  void Start();

  /// Routes one request to the tenant's home shard (blocking submit; see
  /// AdapterServer::Submit). NotFound if RegisterTenant was never called.
  Result<std::future<Tensor>> Submit(const std::string& tenant,
                                     Tensor features, Tensor x);

  /// Non-blocking variant: false when the home shard's queue is full.
  /// NotFound for unknown tenants.
  Result<bool> TrySubmit(const std::string& tenant, Tensor features, Tensor x,
                         std::future<Tensor>* out);

  /// Drains and stops every shard; idempotent.
  void Shutdown();

  int num_shards() const { return options_.num_shards; }

  /// One shard's pipeline counters.
  ServeStats shard_stats(int shard) const;

  /// All shards folded into one snapshot (counters summed, latency samples
  /// concatenated — percentiles stay exact).
  ServeStats aggregated_stats() const;

 private:
  ShardRouterOptions options_;
  AdapterRegistry* registry_;
  std::vector<std::unique_ptr<AdapterServer>> shards_;
  /// tenant -> session id on its home shard. Written only before Start().
  std::unordered_map<std::string, int> sessions_;
};

}  // namespace serve
}  // namespace metalora

#endif  // METALORA_SERVE_SHARD_ROUTER_H_
