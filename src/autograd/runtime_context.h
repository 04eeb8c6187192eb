// Per-execution runtime state for the autograd op layer.
//
// A RuntimeContext carries everything an op invocation needs beyond its
// tensor arguments: whether gradients are being recorded, an optional
// bump-allocated workspace arena for intermediate tensors (the inference
// fast path), and per-op execution counters. There is always a current
// context per thread (a default one exists from the start); scopes push a
// replacement for a region of code, which is how the dataset-scale
// consumers (feature extraction, KNN evaluation) opt into the arena.
//
// Modeled after the per-execution RuntimeContext of Hetu's OperatorDef and
// the grad-mode TLS of PyTorch, collapsed into one object because this
// library is single-stream per thread.
#ifndef METALORA_AUTOGRAD_RUNTIME_CONTEXT_H_
#define METALORA_AUTOGRAD_RUNTIME_CONTEXT_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/autocast.h"
#include "tensor/tensor.h"

namespace metalora {
namespace autograd {

struct VariableImpl;

/// A generation-tagged bump allocator for intermediate tensors. Allocate()
/// carves zero-initialized views out of geometrically grown blocks; Reset()
/// makes the whole capacity reusable without returning memory to the heap.
/// Views share ownership of their block, so a tensor outliving the arena
/// never dangles — but its contents are clobbered by allocations after a
/// Reset, so results that escape an arena scope must be Clone()d out first.
///
/// Each Reset()/NextGeneration() starts a new generation: every view handed
/// out belongs to the generation that was current at allocation time and is
/// invalid (contents-wise) once a newer generation starts allocating. The
/// trainer bumps the generation once per optimizer step, which is what lets
/// one arena serve the grad-recording forward AND backward of a step — the
/// whole graph dies together at the step boundary.
class WorkspaceArena {
 public:
  /// `initial_floats` sizes the first block (later blocks double).
  explicit WorkspaceArena(int64_t initial_floats = 1 << 16);

  /// Returns a zero-filled tensor of `shape` carved from the arena.
  Tensor Allocate(Shape shape);

  /// Like Allocate() but the contents are unspecified on reused blocks
  /// (stale bytes from before the last Reset). For ops that overwrite every
  /// element of their output — zero-filling those would pay one full memset
  /// per intermediate per iteration, which made the "fast" no-grad path
  /// slower than the grad-recording path.
  Tensor AllocateUninitialized(Shape shape);

  /// Reclaims every allocation at once; blocks are kept for reuse.
  void Reset();

  /// Reset() plus a generation bump. Call at step boundaries.
  void NextGeneration() {
    Reset();
    ++generation_;
  }

  /// Generation counter: number of NextGeneration() calls so far.
  uint64_t generation() const { return generation_; }

  /// Floats currently handed out (since the last Reset), in bytes.
  int64_t used_bytes() const { return used_floats_ * kFloatBytes; }
  /// High-water mark of used_bytes() across the arena's lifetime.
  int64_t peak_bytes() const { return peak_floats_ * kFloatBytes; }
  /// Total block capacity owned by the arena, in bytes.
  int64_t capacity_bytes() const { return capacity_floats_ * kFloatBytes; }
  /// Number of Allocate() calls served over the arena's lifetime.
  int64_t alloc_count() const { return alloc_count_; }
  /// Allocations served from an already-owned block (steady state).
  int64_t block_hits() const { return block_hits_; }
  /// Allocations that had to grow a new block (warm-up / high-water).
  int64_t block_misses() const { return block_misses_; }

 private:
  static constexpr int64_t kFloatBytes = static_cast<int64_t>(sizeof(float));

  Tensor AllocateImpl(Shape shape, bool zero);

  struct Block {
    std::shared_ptr<std::vector<float>> data;
    int64_t used = 0;
  };

  std::vector<Block> blocks_;
  int64_t next_block_floats_;
  int64_t used_floats_ = 0;
  int64_t peak_floats_ = 0;
  int64_t capacity_floats_ = 0;
  int64_t alloc_count_ = 0;
  int64_t block_hits_ = 0;
  int64_t block_misses_ = 0;
  uint64_t generation_ = 0;
};

/// Forward execution counters, bucketed per op name. Byte counts are output
/// sizes. Counters are only populated while profiling is enabled on the
/// context — the fast path skips both the clock read and the map update.
struct OpProfile {
  int64_t calls = 0;
  int64_t output_bytes = 0;
  int64_t nanos = 0;
};

/// Per-leaf gradient accumulator used by the data-parallel trainer: when a
/// GradSink is installed on the context, Backward() deposits leaf gradients
/// here instead of into the shared Variable .grad buffers, so N replicas
/// can backpropagate concurrently through one set of parameters without a
/// single racing accumulation. The trainer tree-reduces the sinks at the
/// step's join point.
using GradSink = std::unordered_map<VariableImpl*, Tensor>;

class RuntimeContext {
 public:
  RuntimeContext() = default;
  RuntimeContext(const RuntimeContext&) = delete;
  RuntimeContext& operator=(const RuntimeContext&) = delete;

  /// The thread's current context. Never null: a default context with
  /// grad recording on and no arena exists per thread.
  static RuntimeContext& Current();

  bool grad_enabled() const { return grad_enabled_; }
  void set_grad_enabled(bool enabled) { grad_enabled_ = enabled; }

  /// Logical replica (batch shard) this thread is executing for the
  /// data-parallel trainer; 0 everywhere else. Keyed consumers — adapter
  /// binding slots, BatchNorm running-stat updates — read it to keep
  /// concurrent replicas isolated and the reduction deterministic.
  int replica_id() const { return replica_id_; }
  void set_replica_id(int id) { replica_id_ = id; }

  /// Leaf-gradient sink (see GradSink). Null means leaf gradients
  /// accumulate into Variable .grad directly — the single-replica behavior.
  GradSink* grad_sink() const { return grad_sink_; }
  void set_grad_sink(GradSink* sink) { grad_sink_ = sink; }

  WorkspaceArena* arena() const { return arena_; }
  void set_arena(WorkspaceArena* arena) { arena_ = arena; }

  bool profiling() const { return profiling_; }
  void set_profiling(bool enabled) { profiling_ = enabled; }

  /// Autocast policy for this execution (see tensor/autocast.h). Default
  /// is the disabled policy: everything fp32, bit-identical engine.
  /// Copied into the per-task contexts ParallelApplyNoGrad creates.
  const AutocastPolicy& autocast() const { return autocast_; }
  void set_autocast(const AutocastPolicy& policy) { autocast_ = policy; }

  /// The precision an eligible op should run at under this context: fp32
  /// whenever gradients are being recorded (training is always full
  /// precision, preserving the trainer's bit-identity contract) or the
  /// policy is disabled; otherwise the policy's per-category choice.
  OpPrecision PrecisionFor(OpCategory category) const {
    if (grad_enabled_ || !autocast_.enabled) return OpPrecision::kFp32;
    return autocast_.Resolve(category);
  }

  /// Books one eligible-GEMM dispatch at `precision`. Always on (one
  /// array increment); the --profile table and serving stats report the
  /// per-precision totals. int8 facades that fall back (no shadow
  /// registered) book the precision that actually ran.
  void RecordGemmDispatch(OpPrecision precision) {
    ++gemm_dispatch_[static_cast<int>(precision)];
  }
  int64_t gemm_dispatch(OpPrecision precision) const {
    return gemm_dispatch_[static_cast<int>(precision)];
  }

  /// When set (and an arena is installed), the arena also serves
  /// grad-recording forward intermediates and backward scratch. Only safe
  /// when the owner bumps the arena generation at step boundaries AND
  /// nothing outside the step keeps references into the graph — the trainer
  /// loop's contract. Leaf gradients are exempt: Backward() pins them to the
  /// heap because optimizers read them after the step.
  bool arena_serves_grad() const { return arena_serves_grad_; }
  void set_arena_serves_grad(bool enabled) { arena_serves_grad_ = enabled; }

  /// True when backward scratch comes from the arena on this context.
  bool arena_backward() const {
    return arena_ != nullptr && arena_serves_grad_;
  }

  /// Allocates an op result: from the arena on the no-grad fast path (or in
  /// step-arena mode, where the whole step's graph shares one generation),
  /// from the heap whenever graph-referenced tensors must survive arbitrary
  /// arena resets.
  Tensor AllocResult(const Shape& shape) {
    if (arena_ != nullptr && (!grad_enabled_ || arena_serves_grad_)) {
      ++arena_served_;
      return arena_->Allocate(shape);
    }
    ++heap_served_;
    return Tensor(shape);
  }

  /// AllocResult for ops that assign every element of their output: skips
  /// the zero-fill on arena reuse. Accumulating kernels (Matmul,
  /// BatchedMatmul, PerSamplePointwiseConv) must keep using AllocResult.
  /// The heap path stays zeroed — Tensor(Shape) value-initializes — so this
  /// only changes arena-block reuse, where the saved memset is the win.
  Tensor AllocResultUninit(const Shape& shape) {
    if (arena_ != nullptr && (!grad_enabled_ || arena_serves_grad_)) {
      ++arena_served_;
      return arena_->AllocateUninitialized(shape);
    }
    ++heap_served_;
    return Tensor(shape);
  }

  /// Allocates a zero-filled backward gradient/scratch buffer: from the
  /// arena in step-arena mode, from the heap otherwise. Accumulating
  /// backward kernels (`+=` into the buffer) must use this zeroed variant.
  Tensor AllocBackward(const Shape& shape) {
    if (arena_backward()) {
      ++arena_served_;
      return arena_->Allocate(shape);
    }
    ++heap_served_;
    return Tensor(shape);
  }

  /// AllocBackward for backward kernels that assign every element.
  Tensor AllocBackwardUninit(const Shape& shape) {
    if (arena_backward()) {
      ++arena_served_;
      return arena_->AllocateUninitialized(shape);
    }
    ++heap_served_;
    return Tensor(shape);
  }

  /// Copies a gradient contribution into backward storage (arena in
  /// step-arena mode). Used by the accumulation sweep, which needs an owned
  /// mutable copy of the first contribution per variable.
  Tensor CloneForBackward(const Tensor& t) {
    if (arena_backward()) {
      ++arena_served_;
      Tensor out = arena_->AllocateUninitialized(t.shape());
      out.CopyDataFrom(t);
      return out;
    }
    ++heap_served_;
    return t.Clone();
  }

  /// Copies a tensor that must outlive the arena generation (leaf
  /// gradients handed to the optimizer) to a heap buffer, and books it in
  /// the pin counters.
  Tensor PinToHeap(const Tensor& t) {
    ++pin_count_;
    pin_bytes_ += t.numel() * static_cast<int64_t>(sizeof(float));
    return t.Clone();
  }

  /// Called once per graph node recorded while this context is current.
  void RecordNode(int64_t saved_bytes) {
    ++nodes_recorded_;
    saved_bytes_recorded_ += saved_bytes;
  }

  /// Called once per facade op invocation.
  void RecordForward(const char* name, int64_t output_bytes, int64_t nanos) {
    Book(&op_profiles_[name], output_bytes, nanos);
  }

  /// Called once per Op::Backward run while profiling: the op's backward
  /// time and the bytes of the gradients it returned. Kept apart from the
  /// forward rows, so op_profiles() stays a forward-only profile.
  void RecordBackward(const char* name, int64_t grad_bytes, int64_t nanos) {
    Book(&backward_profiles_[name], grad_bytes, nanos);
  }

  /// Folds the counters of a child context (a ParallelApplyNoGrad task that
  /// ran on another thread) into this one. Called at the join in fixed task
  /// order, so merged stats are independent of execution interleaving.
  void MergeChildStats(const RuntimeContext& child) {
    nodes_recorded_ += child.nodes_recorded_;
    saved_bytes_recorded_ += child.saved_bytes_recorded_;
    arena_served_ += child.arena_served_;
    heap_served_ += child.heap_served_;
    pin_count_ += child.pin_count_;
    pin_bytes_ += child.pin_bytes_;
    for (int i = 0; i < kNumOpPrecisions; ++i) {
      gemm_dispatch_[i] += child.gemm_dispatch_[i];
    }
    for (const auto& [name, p] : child.op_profiles_) {
      Book(&op_profiles_[name], p.output_bytes, p.nanos, p.calls);
    }
    for (const auto& [name, p] : child.backward_profiles_) {
      Book(&backward_profiles_[name], p.output_bytes, p.nanos, p.calls);
    }
  }

  /// Graph nodes recorded while this context was current (0 on a pure
  /// no-grad pass — the acceptance invariant of the fast path).
  int64_t nodes_recorded() const { return nodes_recorded_; }
  /// Bytes pinned by SavedTensors of those nodes.
  int64_t saved_bytes_recorded() const { return saved_bytes_recorded_; }
  /// Result/backward allocations served from the arena.
  int64_t arena_served() const { return arena_served_; }
  /// Result/backward allocations that fell back to the heap.
  int64_t heap_served() const { return heap_served_; }
  /// Leaf-gradient pins (arena -> heap copies that outlive the step).
  int64_t pin_count() const { return pin_count_; }
  /// Bytes copied out by those pins.
  int64_t pin_bytes() const { return pin_bytes_; }
  /// Fraction of result/backward allocations served from the arena.
  double ArenaHitRate() const {
    const int64_t total = arena_served_ + heap_served_;
    return total > 0 ? static_cast<double>(arena_served_) /
                           static_cast<double>(total)
                     : 0.0;
  }

  const std::map<std::string, OpProfile>& op_profiles() const {
    return op_profiles_;
  }
  /// Per-op backward rows (RecordBackward); empty unless profiling was on
  /// during a Backward sweep.
  const std::map<std::string, OpProfile>& backward_profiles() const {
    return backward_profiles_;
  }

  /// Clears counters (not the arena).
  void ResetStats() {
    nodes_recorded_ = 0;
    saved_bytes_recorded_ = 0;
    arena_served_ = 0;
    heap_served_ = 0;
    pin_count_ = 0;
    pin_bytes_ = 0;
    for (int i = 0; i < kNumOpPrecisions; ++i) gemm_dispatch_[i] = 0;
    op_profiles_.clear();
    backward_profiles_.clear();
  }

 private:
  static void Book(OpProfile* p, int64_t bytes, int64_t nanos,
                   int64_t calls = 1) {
    p->calls += calls;
    p->output_bytes += bytes;
    p->nanos += nanos;
  }

  bool grad_enabled_ = true;
  bool profiling_ = false;
  bool arena_serves_grad_ = false;
  int replica_id_ = 0;
  WorkspaceArena* arena_ = nullptr;
  GradSink* grad_sink_ = nullptr;
  AutocastPolicy autocast_;
  int64_t gemm_dispatch_[kNumOpPrecisions] = {0, 0, 0};
  int64_t nodes_recorded_ = 0;
  int64_t saved_bytes_recorded_ = 0;
  int64_t arena_served_ = 0;
  int64_t heap_served_ = 0;
  int64_t pin_count_ = 0;
  int64_t pin_bytes_ = 0;
  std::map<std::string, OpProfile> op_profiles_;
  std::map<std::string, OpProfile> backward_profiles_;
};

/// RAII: makes `ctx` the thread's current context for the scope's lifetime.
class RuntimeContextScope {
 public:
  explicit RuntimeContextScope(RuntimeContext* ctx);
  ~RuntimeContextScope();
  RuntimeContextScope(const RuntimeContextScope&) = delete;
  RuntimeContextScope& operator=(const RuntimeContextScope&) = delete;

 private:
  RuntimeContext* prev_;
};

/// RAII hook placed at the top of each facade op: while profiling is
/// enabled on `ctx`, times the op body and books one RecordForward entry at
/// scope exit. Call set_output(out) once the result tensor exists so the
/// entry carries its byte size. Free when profiling is off. With
/// `backward`, it times an Op::Backward run and books RecordBackward
/// instead; add_output(grad) counts each returned gradient's bytes.
class ProfileScope {
 public:
  ProfileScope(RuntimeContext& ctx, const char* name, bool backward = false);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  void set_output(const Tensor& out) {
    if (enabled_) {
      output_bytes_ = out.numel() * static_cast<int64_t>(sizeof(float));
    }
  }
  void add_output(const Tensor& out) {
    if (enabled_ && out.defined()) {
      output_bytes_ += out.numel() * static_cast<int64_t>(sizeof(float));
    }
  }

 private:
  RuntimeContext& ctx_;
  const char* name_;
  bool enabled_;
  bool backward_;
  int64_t output_bytes_ = 0;
  int64_t start_nanos_ = 0;
};

/// Renders ctx.op_profiles() as a table (op, calls, total ms, us/call,
/// output MiB), sorted by total time descending, then ctx.backward_profiles()
/// the same way (gradient MiB) when a profiled Backward ran, under a line
/// naming the
/// GEMM ISA this process runs (ActiveGemmIsa), followed by an allocator
/// trailer (arena hit rate, heap fallbacks, leaf pins, and — when the ctx
/// has an arena — its generation and block hit/miss counters). The sink for
/// the bench harnesses' --profile flag; prints a placeholder line when
/// profiling never recorded anything.
void PrintOpProfileTable(const RuntimeContext& ctx, std::ostream& os);

/// True while gradient recording is enabled on the current context.
bool GradEnabled();

/// RAII guard disabling gradient recording (feature extraction, evaluation).
/// Toggles the context that is current at construction; do not interleave
/// with RuntimeContextScope push/pop across the guard's lifetime.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  RuntimeContext* ctx_;
  bool prev_;
};

}  // namespace autograd
}  // namespace metalora

#endif  // METALORA_AUTOGRAD_RUNTIME_CONTEXT_H_
