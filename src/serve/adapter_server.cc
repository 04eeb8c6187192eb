#include "serve/adapter_server.h"

#include <algorithm>
#include <ctime>
#include <utility>

#include "autograd/runtime_context.h"
#include "autograd/variable.h"
#include "common/check.h"
#include "eval/batch_assembly.h"

namespace metalora {
namespace serve {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// CPU time consumed by the calling thread, in microseconds. The forward
/// cost samples (ServeStats::forward_us) use this instead of wall time so
/// that client threads preempting a worker mid-forward on small machines
/// do not inflate the forward's measured cost.
double ThreadCpuMicros() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
  }
#endif
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

AdapterServer::AdapterServer(AdapterServerOptions options)
    : options_(std::move(options)),
      request_queue_(options_.queue_capacity),
      batch_queue_(options_.batch_queue_capacity) {
  ML_CHECK_GT(options_.max_batch_size, 0);
  ML_CHECK_GT(options_.flush_deadline_us, 0);
  ML_CHECK_GT(options_.num_workers, 0);
}

AdapterServer::~AdapterServer() { Shutdown(); }

int AdapterServer::RegisterSession(core::Adapter* adapter,
                                   core::ConditioningCache* adapter_cache) {
  ML_CHECK(adapter != nullptr);
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    ML_CHECK(!started_) << "RegisterSession after Start";
  }
  auto session = std::make_unique<Session>();
  session->adapter = adapter;
  session->adapter_cache = adapter_cache;
  sessions_.push_back(std::move(session));
  return static_cast<int>(sessions_.size()) - 1;
}

int AdapterServer::RegisterTenantSession(AdapterRegistry* registry,
                                         const std::string& tenant) {
  ML_CHECK(registry != nullptr);
  ML_CHECK(!tenant.empty());
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    ML_CHECK(!started_) << "RegisterTenantSession after Start";
  }
  auto session = std::make_unique<Session>();
  session->registry = registry;
  session->tenant = tenant;
  sessions_.push_back(std::move(session));
  return static_cast<int>(sessions_.size()) - 1;
}

void AdapterServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  ML_CHECK(!started_) << "Start called twice";
  ML_CHECK(!sessions_.empty()) << "Start with no sessions";
  started_ = true;
  batcher_ = std::thread([this] { BatcherLoop(); });
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

std::future<Tensor> AdapterServer::Submit(int session_id, Tensor features,
                                          Tensor x) {
  ML_CHECK(session_id >= 0 &&
           session_id < static_cast<int>(sessions_.size()));
  ML_CHECK(features.defined() && x.defined());
  ML_CHECK_EQ(features.dim(0), x.dim(0))
      << "Submit: features and x must pair row-for-row";
  Request req;
  req.session_id = session_id;
  req.features = std::move(features);
  req.x = std::move(x);
  req.promise = std::make_shared<std::promise<Tensor>>();
  req.enqueue_time = std::chrono::steady_clock::now();
  std::future<Tensor> future = req.promise->get_future();
  if (!request_queue_.Push(req)) {
    // Closed: resolve to an undefined Tensor rather than hang the caller.
    req.promise->set_value(Tensor());
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests_rejected;
  }
  return future;
}

bool AdapterServer::TrySubmit(int session_id, Tensor features, Tensor x,
                              std::future<Tensor>* out) {
  ML_CHECK(session_id >= 0 &&
           session_id < static_cast<int>(sessions_.size()));
  ML_CHECK(out != nullptr);
  Request req;
  req.session_id = session_id;
  req.features = std::move(features);
  req.x = std::move(x);
  req.promise = std::make_shared<std::promise<Tensor>>();
  req.enqueue_time = std::chrono::steady_clock::now();
  std::future<Tensor> future = req.promise->get_future();
  if (!request_queue_.TryPush(req)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests_rejected;
    return false;
  }
  *out = std::move(future);
  return true;
}

void AdapterServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  request_queue_.Close();
  if (batcher_.joinable()) batcher_.join();
  batch_queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Never started: nothing drained the queue — fail the stranded requests
  // instead of leaving their futures hanging.
  Request req;
  while (request_queue_.Pop(&req) == QueuePopStatus::kItem) {
    req.promise->set_value(Tensor());
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests_rejected;
  }
}

void AdapterServer::FlushPending(std::vector<Request>* pending, bool drain,
                                 int64_t* flush_counter) {
  if (pending->empty()) return;
  Batch batch;
  batch.session_id = pending->front().session_id;
  batch.drain = drain;
  batch.requests = std::move(*pending);
  pending->clear();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++*flush_counter;
  }
  if (!batch_queue_.Push(batch)) {
    // Batch queue closed under us (only possible on teardown races): fail
    // the requests rather than drop their promises.
    for (Request& r : batch.requests) {
      r.promise->set_value(Tensor());
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.requests_rejected += static_cast<int64_t>(batch.requests.size());
  }
}

void AdapterServer::BatcherLoop() {
  std::vector<std::vector<Request>> pending(sessions_.size());
  // When each session's current partial batch started pending. The flush
  // deadline bounds the *batching delay* the batcher adds on top of queue
  // wait — it is measured from here, not from the client's enqueue time,
  // so a backlogged queue (where every request is already older than the
  // deadline on arrival) still coalesces full batches instead of
  // degenerating to batch size 1.
  std::vector<std::chrono::steady_clock::time_point> pend_since(
      sessions_.size());
  for (;;) {
    // Next wake-up: the oldest partial batch's flush deadline.
    int64_t timeout_us = options_.flush_deadline_us;
    for (size_t s = 0; s < pending.size(); ++s) {
      if (pending[s].empty()) continue;
      const int64_t age_us = static_cast<int64_t>(MicrosSince(pend_since[s]));
      timeout_us =
          std::min(timeout_us,
                   std::max<int64_t>(options_.flush_deadline_us - age_us, 1));
    }

    Request req;
    QueuePopStatus status = request_queue_.PopFor(&req, timeout_us);
    if (status == QueuePopStatus::kClosed) {
      for (auto& p : pending) {
        FlushPending(&p, /*drain=*/true, &stats_.drain_flushes);
      }
      return;
    }
    // Greedily drain whatever is already queued: full batches flush as
    // soon as they fill, and the drain is bounded by the queue capacity,
    // so the deadline sweep below cannot be starved.
    while (status == QueuePopStatus::kItem) {
      auto& p = pending[static_cast<size_t>(req.session_id)];
      if (p.empty()) {
        pend_since[static_cast<size_t>(req.session_id)] =
            std::chrono::steady_clock::now();
      }
      p.push_back(std::move(req));
      if (static_cast<int64_t>(p.size()) >= options_.max_batch_size) {
        FlushPending(&p, /*drain=*/false, &stats_.size_flushes);
      }
      status = request_queue_.PopFor(&req, /*timeout_us=*/0);
    }
    // Deadline sweep — runs on timeouts and after each drain, so a
    // saturating stream cannot starve a nearly-empty session's bound.
    for (size_t s = 0; s < pending.size(); ++s) {
      if (pending[s].empty()) continue;
      if (MicrosSince(pend_since[s]) >=
          static_cast<double>(options_.flush_deadline_us)) {
        FlushPending(&pending[s], /*drain=*/false, &stats_.deadline_flushes);
      }
    }
  }
}

void AdapterServer::WorkerLoop() {
  // Per-worker execution state: a no-grad RuntimeContext whose arena serves
  // every intermediate of the batch forward. One generation per batch; the
  // split-out results are heap clones, so nothing escapes the recycling.
  autograd::WorkspaceArena arena;
  autograd::RuntimeContext ctx;
  ctx.set_grad_enabled(false);
  ctx.set_arena(&arena);
  autograd::RuntimeContextScope scope(&ctx);
  // The GEMM dispatch count, folded into stats_ incrementally (delta since
  // the last fold) so stats() stays fresh while workers live.
  int64_t folded = 0;
  for (;;) {
    Batch batch;
    if (batch_queue_.Pop(&batch) != QueuePopStatus::kItem) return;
    if (options_.worker_batch_hook) options_.worker_batch_hook();
    arena.NextGeneration();
    ExecuteBatch(std::move(batch));
    std::lock_guard<std::mutex> lock(stats_mu_);
    const int64_t now = ctx.gemm_dispatches();
    stats_.gemm_dispatch[0] += now - folded;
    folded = now;
  }
}

void AdapterServer::ExecuteBatch(Batch batch) {
  Session& session = *sessions_[static_cast<size_t>(batch.session_id)];
  std::vector<Request>& requests = batch.requests;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches_executed;
    stats_.batched_rows += static_cast<int64_t>(requests.size());
    stats_.max_batch_size =
        std::max(stats_.max_batch_size, static_cast<int64_t>(requests.size()));
  }

  // Registry-backed sessions resolve their adapter per batch: the acquired
  // shared_ptr snapshot pins the instance (RCU) for the duration of the
  // forward, so a concurrent Publish or eviction never tears it.
  std::shared_ptr<ResidentAdapter> handle;
  core::Adapter* adapter = session.adapter;
  std::mutex* forward_mu = &session.forward_mu;
  if (session.registry != nullptr) {
    auto acquired = session.registry->Acquire(
        session.tenant, static_cast<int64_t>(requests.size()));
    if (!acquired.ok()) {
      // Unregistered tenant or torn/unreadable checkpoint: the batch cannot
      // run. Fail its requests rather than hang their futures.
      FailRequests(&requests);
      return;
    }
    handle = std::move(acquired).value();
    adapter = handle->adapter.get();
    forward_mu = &handle->forward_mu;
  }

  // One coalesced forward for the whole batch.
  std::vector<Tensor> feature_parts, x_parts;
  std::vector<int64_t> row_counts;
  feature_parts.reserve(requests.size());
  x_parts.reserve(requests.size());
  row_counts.reserve(requests.size());
  for (const Request& req : requests) {
    feature_parts.push_back(req.features);
    x_parts.push_back(req.x);
    row_counts.push_back(req.x.dim(0));
  }
  const Tensor features_cat = eval::ConcatRows(feature_parts);
  const Tensor x_cat = eval::ConcatRows(x_parts);

  const double forward_start_cpu = ThreadCpuMicros();
  Tensor output;
  {
    // Adapters bind features statefully; one forward per instance at a time.
    std::lock_guard<std::mutex> lock(*forward_mu);
    adapter->SetFeatures(
        autograd::Variable(features_cat, /*requires_grad=*/false));
    output =
        adapter->Forward(autograd::Variable(x_cat, /*requires_grad=*/false))
            .value();
  }
  {
    const double forward_us = ThreadCpuMicros() - forward_start_cpu;
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.forward_us.push_back(forward_us);
  }
  std::vector<Tensor> outputs = eval::SplitRows(output, row_counts);
  for (size_t i = 0; i < requests.size(); ++i) {
    CompleteRequest(&requests[i], outputs[i]);
  }
}

void AdapterServer::FailRequests(std::vector<Request>* requests) {
  for (Request& r : *requests) {
    r.promise->set_value(Tensor());
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.requests_failed += static_cast<int64_t>(requests->size());
}

void AdapterServer::CompleteRequest(Request* request, Tensor result) {
  const double latency_us = MicrosSince(request->enqueue_time);
  request->promise->set_value(std::move(result));
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.requests_completed;
  stats_.latencies_us.push_back(latency_us);
}

ServeStats AdapterServer::stats() const {
  ServeStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot = stats_;
  }
  snapshot.request_queue_peak = request_queue_.peak_size();
  snapshot.batch_queue_peak = batch_queue_.peak_size();
  for (const auto& session : sessions_) {
    if (auto* cache = session->adapter_cache) {
      const core::ConditioningCacheStats s = cache->stats();
      snapshot.adapter_cache_hits += s.hits;
      snapshot.adapter_cache_misses += s.misses;
      snapshot.adapter_cache_evictions += s.evictions;
    }
  }
  return snapshot;
}

}  // namespace serve
}  // namespace metalora
