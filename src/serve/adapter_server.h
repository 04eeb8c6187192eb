// In-process batched adaptation server for MetaLoRA adapters.
//
// PR 4 made a single no-grad MetaLoRA forward cheap (conditioning-keyed
// ΔW/seed cache + workspace arenas); this layer makes *many concurrent*
// forwards cheap by coalescing them. The pipeline:
//
//   clients --Submit--> [bounded request queue]      (backpressure: Push
//                             |                       blocks when full)
//                       micro-batcher thread          groups per session,
//                             |                       flushes on max batch
//                       [bounded batch queue]         size or a deadline
//                             |
//                       worker threads                per-worker arena +
//                             |                       no-grad RuntimeContext;
//                       per-request promises          per-session forwards
//
// Requests against one session (one adapter) are concatenated along dim 0
// (eval/batch_assembly.h), run as one adapter Forward, and split back per
// request. Every op on the eval path is row-wise / per-sample, so batched
// outputs are bit-identical to one-at-a-time execution — the serving tests
// and bench assert it.
//
// A warm request skips the mapping net through the adapters' own
// ConditioningCache (keyed on the batch's feature tensor); there is no
// serve-level result cache, since MetaLoRA traffic rarely repeats a request
// byte for byte. Every batch runs one adapter forward.
//
// Shutdown is drain-based: Shutdown() closes the request queue, the
// batcher flushes everything it holds, the workers finish every queued
// batch, and only then do the threads exit — every accepted request's
// future is fulfilled. Submits that race past Close() resolve to an
// undefined Tensor (and count as rejected).
#ifndef METALORA_SERVE_ADAPTER_SERVER_H_
#define METALORA_SERVE_ADAPTER_SERVER_H_

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "core/adapter_config.h"
#include "core/conditioning_cache.h"
#include "serve/adapter_registry.h"
#include "serve/serve_stats.h"
#include "tensor/tensor.h"

namespace metalora {
namespace serve {

struct AdapterServerOptions {
  /// Rows per batch at which the micro-batcher flushes immediately.
  int64_t max_batch_size = 8;
  /// Oldest-request age at which a partial batch is flushed anyway.
  int64_t flush_deadline_us = 2000;
  /// Worker threads executing batches. Batches from different sessions run
  /// concurrently; a session's forwards are serialized (adapters bind
  /// features statefully via SetFeatures).
  int num_workers = 2;
  /// Request-queue bound: Submit blocks (TrySubmit fails) beyond this.
  int64_t queue_capacity = 64;
  /// Assembled-batch queue bound between the batcher and the workers.
  int64_t batch_queue_capacity = 16;
  /// Test hook: runs on the worker thread before each batch executes.
  /// Lets tests stall the pipeline deterministically (backpressure,
  /// shutdown-with-in-flight coverage). Leave empty in production.
  std::function<void()> worker_batch_hook;
};

class AdapterServer {
 public:
  explicit AdapterServer(AdapterServerOptions options);
  ~AdapterServer();  // implies Shutdown()

  AdapterServer(const AdapterServer&) = delete;
  AdapterServer& operator=(const AdapterServer&) = delete;

  /// Registers an adapter-backed model and returns its session id. The
  /// adapter must outlive the server. Call before Start(). Pass the
  /// adapter's conditioning cache (Adapter::conditioning_cache(), non-null
  /// for the conditioned kinds) so stats() can fold its hit/miss/eviction
  /// counters into the snapshot; nullptr skips that accounting.
  int RegisterSession(core::Adapter* adapter,
                      core::ConditioningCache* adapter_cache = nullptr);

  /// Registers a registry-backed session: the adapter is resolved through
  /// `registry->Acquire(tenant)` per batch, so it is loaded lazily on the
  /// first request, may be evicted and reloaded between batches, and can be
  /// hot-swapped by a concurrent Publish with no downtime (each batch runs
  /// to completion on the version snapshot it acquired). The registry must
  /// outlive the server; `tenant` need not be registered yet at call time,
  /// but requests fail (undefined Tensor, requests_failed) until it is.
  /// Call before Start().
  int RegisterTenantSession(AdapterRegistry* registry,
                            const std::string& tenant);

  /// Launches the batcher and worker threads.
  void Start();

  /// Enqueues one request: conditioning features [n, feature_dim] paired
  /// row-for-row with input x ([n, in] linear / [n, C, H, W] conv; n is
  /// almost always 1 in serving). Blocks while the request queue is full
  /// (backpressure). The future resolves to the adapter output rows for x,
  /// or to an undefined Tensor if the server was already shut down.
  std::future<Tensor> Submit(int session_id, Tensor features, Tensor x);

  /// Non-blocking Submit: false when the queue is full or the server is
  /// shut down (counted as rejected; *out is untouched).
  bool TrySubmit(int session_id, Tensor features, Tensor x,
                 std::future<Tensor>* out);

  /// Drains and stops the pipeline; idempotent. Every request accepted
  /// before the call completes with a real result.
  void Shutdown();

  /// Snapshot of the pipeline counters (see serve_stats.h). Adapter-cache
  /// totals are re-read from the sessions at call time.
  ServeStats stats() const;

 private:
  struct Request {
    int session_id = 0;
    Tensor features;
    Tensor x;
    std::shared_ptr<std::promise<Tensor>> promise;
    std::chrono::steady_clock::time_point enqueue_time;
  };

  struct Batch {
    int session_id = 0;
    bool drain = false;  // assembled during shutdown (stats only)
    std::vector<Request> requests;
  };

  struct Session {
    /// Static sessions: the adapter served for the session's lifetime.
    /// Null for registry-backed sessions, which resolve per batch.
    core::Adapter* adapter = nullptr;
    /// The adapter's own ΔW/seed cache, for stats aggregation only.
    core::ConditioningCache* adapter_cache = nullptr;
    /// Registry-backed sessions: where and what to Acquire per batch.
    AdapterRegistry* registry = nullptr;
    std::string tenant;
    /// Serializes SetFeatures + Forward (the adapter binds features
    /// statefully) across workers. Static sessions only — registry-backed
    /// batches use the acquired handle's forward_mu, which is per version.
    std::mutex forward_mu;
  };

  void BatcherLoop();
  void WorkerLoop();
  void ExecuteBatch(Batch batch);
  void FlushPending(std::vector<Request>* pending, bool drain,
                    int64_t* flush_counter);
  void CompleteRequest(Request* request, Tensor result);
  void FailRequests(std::vector<Request>* requests);

  AdapterServerOptions options_;
  std::vector<std::unique_ptr<Session>> sessions_;
  BoundedQueue<Request> request_queue_;
  BoundedQueue<Batch> batch_queue_;
  std::thread batcher_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopped_ = false;
  std::mutex lifecycle_mu_;

  mutable std::mutex stats_mu_;
  ServeStats stats_;
};

}  // namespace serve
}  // namespace metalora

#endif  // METALORA_SERVE_ADAPTER_SERVER_H_
