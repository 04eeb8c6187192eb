// Observability for the in-process adaptation server (adapter_server.h).
//
// The server books one latency sample per completed request plus counters
// for every pipeline stage: queue depth high-water marks (the backpressure
// gauges), batch-size and flush-cause accounting for the micro-batcher,
// hit/miss/eviction totals for the adapters' conditioning caches, and the
// GEMM dispatch count.
#ifndef METALORA_SERVE_SERVE_STATS_H_
#define METALORA_SERVE_SERVE_STATS_H_

#include <cstdint>
#include <vector>

namespace metalora {

/// Width of ServeStats::gemm_dispatch. The slots exist only for the
/// end-to-end benchmark (bench/suite), which reads three of them as
/// tensor.gemm.dispatch.{fp32,bf16,int8}; every GEMM is fp32, so slots 1
/// and 2 always read 0.
inline constexpr int kNumOpPrecisions = 3;

namespace serve {

struct ServeStats {
  // Request accounting.
  int64_t requests_completed = 0;
  int64_t requests_rejected = 0;  // TrySubmit refusals (queue full) + closed
  /// Accepted requests whose adapter could not be resolved (registry-backed
  /// sessions: missing tenant, torn/unreadable checkpoint). Their futures
  /// resolve to an undefined Tensor.
  int64_t requests_failed = 0;

  // Micro-batcher accounting.
  int64_t batches_executed = 0;   // batches that ran an adapter forward
  int64_t batched_rows = 0;       // total requests that went through batches
  int64_t max_batch_size = 0;
  int64_t size_flushes = 0;       // flushed because the batch filled up
  int64_t deadline_flushes = 0;   // flushed because the oldest request aged
  int64_t drain_flushes = 0;      // flushed while shutting down

  // Queue gauges (high-water marks over the server's lifetime).
  int64_t request_queue_peak = 0;
  int64_t batch_queue_peak = 0;

  // Adapter-level conditioning caches, summed over sessions at snapshot.
  int64_t adapter_cache_hits = 0;
  int64_t adapter_cache_misses = 0;
  int64_t adapter_cache_evictions = 0;

  // Always zero: the end-to-end benchmark (bench/suite) still reads them.
  int64_t result_cache_hits = 0, result_cache_misses = 0;
  int64_t plan_hits = 0, plan_misses = 0, plan_fallbacks = 0;

  /// Forward-GEMM dispatches, folded into slot 0 from the worker contexts
  /// after every batch. Slots 1 and 2 always read 0 (see kNumOpPrecisions).
  int64_t gemm_dispatch[kNumOpPrecisions] = {0, 0, 0};

  // One sample per completed request: submit-to-completion wall time.
  std::vector<double> latencies_us;

  // One sample per forwarded batch: worker-thread CPU time of the adapter
  // forward itself, excluding queueing, batch assembly, and result
  // splitting. Thread CPU time, not wall time: request latency on small
  // runners is dominated by scheduler wakeups and client threads
  // preempting the worker mid-forward.
  std::vector<double> forward_us;

  /// Mean rows per executed batch (0 when no batch ran).
  double MeanBatchSize() const;

  /// Percentile in [0, 100] by nearest-rank on a sorted copy; 0 on empty.
  static double PercentileUs(const std::vector<double>& samples, double pct);

  /// PercentileUs over the per-request latency samples.
  double LatencyPercentileUs(double pct) const;
};

}  // namespace serve
}  // namespace metalora

#endif  // METALORA_SERVE_SERVE_STATS_H_
