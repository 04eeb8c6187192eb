#include "autograd/runtime_context.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <utility>
#include <vector>

#include "common/table_printer.h"
#include "tensor/gemm.h"

namespace metalora {
namespace autograd {

namespace {

RuntimeContext*& CurrentContextSlot() {
  static thread_local RuntimeContext default_context;
  static thread_local RuntimeContext* current = &default_context;
  return current;
}

}  // namespace

WorkspaceArena::WorkspaceArena(int64_t initial_floats)
    : next_block_floats_(std::max<int64_t>(initial_floats, 1)) {}

Tensor WorkspaceArena::AllocateImpl(Shape shape, bool zero) {
  const int64_t numel = shape.numel();
  ++alloc_count_;
  // First block with room wins; blocks stay small in count because each new
  // one doubles, so the scan is effectively O(1).
  for (Block& block : blocks_) {
    const int64_t capacity = static_cast<int64_t>(block.data->size());
    if (block.used + numel <= capacity) {
      const int64_t offset = block.used;
      block.used += numel;
      used_floats_ += numel;
      peak_floats_ = std::max(peak_floats_, used_floats_);
      ++block_hits_;
      Tensor view = Tensor::WrapBuffer(block.data, offset, std::move(shape));
      // Reused block bytes are stale; Allocate() callers assume zeroed,
      // AllocateUninitialized() callers overwrite every element themselves.
      if (zero) view.Zero();
      return view;
    }
  }
  ++block_misses_;
  const int64_t block_floats = std::max(next_block_floats_, numel);
  next_block_floats_ = block_floats * 2;
  Block block;
  block.data = std::make_shared<std::vector<float>>(
      static_cast<size_t>(block_floats), 0.0f);
  block.used = numel;
  capacity_floats_ += block_floats;
  used_floats_ += numel;
  peak_floats_ = std::max(peak_floats_, used_floats_);
  blocks_.push_back(block);
  // Fresh blocks are value-initialized, so no explicit zeroing is needed.
  return Tensor::WrapBuffer(block.data, 0, std::move(shape));
}

Tensor WorkspaceArena::Allocate(Shape shape) {
  return AllocateImpl(std::move(shape), /*zero=*/true);
}

Tensor WorkspaceArena::AllocateUninitialized(Shape shape) {
  return AllocateImpl(std::move(shape), /*zero=*/false);
}

void WorkspaceArena::Reset() {
  for (Block& block : blocks_) block.used = 0;
  used_floats_ = 0;
}

RuntimeContext& RuntimeContext::Current() { return *CurrentContextSlot(); }

RuntimeContextScope::RuntimeContextScope(RuntimeContext* ctx)
    : prev_(CurrentContextSlot()) {
  ML_CHECK(ctx != nullptr);
  CurrentContextSlot() = ctx;
}

RuntimeContextScope::~RuntimeContextScope() { CurrentContextSlot() = prev_; }

namespace {
int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ProfileScope::ProfileScope(RuntimeContext& ctx, const char* name,
                           bool backward)
    : ctx_(ctx), name_(name), enabled_(ctx.profiling()), backward_(backward) {
  if (enabled_) start_nanos_ = MonotonicNanos();
}

ProfileScope::~ProfileScope() {
  if (!enabled_) return;
  const int64_t nanos = MonotonicNanos() - start_nanos_;
  if (backward_) {
    ctx_.RecordBackward(name_, output_bytes_, nanos);
  } else {
    ctx_.RecordForward(name_, output_bytes_, nanos);
  }
}

namespace {

// One line with the GEMM dispatch count. Printed whenever any GEMM ran,
// profiling or not — the counter is always on.
void PrintDispatchTrailer(const RuntimeContext& ctx, std::ostream& os) {
  if (ctx.gemm_dispatches() == 0) return;
  os << "gemm dispatch: " << ctx.gemm_dispatches() << "\n";
}

// Allocator trailer under the per-op table: arena vs heap service counts,
// leaf pins, and the arena's own block behavior when one is installed.
void PrintArenaTrailer(const RuntimeContext& ctx, std::ostream& os) {
  PrintDispatchTrailer(ctx, os);
  const int64_t total = ctx.arena_served() + ctx.heap_served();
  if (total == 0 && ctx.pin_count() == 0) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ctx.ArenaHitRate());
  os << "allocator: arena " << ctx.arena_served() << " / heap "
     << ctx.heap_served() << " (hit rate " << buf << "), pins "
     << ctx.pin_count() << " (" << ctx.pin_bytes() << " B)\n";
  const WorkspaceArena* arena = ctx.arena();
  if (arena != nullptr) {
    os << "arena: generation " << arena->generation() << ", block hits "
       << arena->block_hits() << ", block misses " << arena->block_misses()
       << ", capacity " << arena->capacity_bytes() << " B, peak "
       << arena->peak_bytes() << " B\n";
  }
}

// One profile map as a table, sorted by total time descending.
void PrintProfileRows(const std::map<std::string, OpProfile>& profiles,
                      const char* title, const char* bytes_header,
                      std::ostream& os) {
  std::vector<std::pair<std::string, OpProfile>> rows(profiles.begin(),
                                                      profiles.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.nanos > b.second.nanos;
  });
  TablePrinter table(title);
  table.SetHeader({"op", "calls", "total ms", "us/call", bytes_header});
  char buf[32];
  for (const auto& [name, p] : rows) {
    std::vector<std::string> row;
    row.push_back(name);
    row.push_back(std::to_string(p.calls));
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(p.nanos) / 1e6);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f",
                  p.calls > 0
                      ? static_cast<double>(p.nanos) / 1e3 /
                            static_cast<double>(p.calls)
                      : 0.0);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f",
                  static_cast<double>(p.output_bytes) / (1024.0 * 1024.0));
    row.push_back(buf);
    table.AddRow(std::move(row));
  }
  table.Print(os);
}

}  // namespace

void PrintOpProfileTable(const RuntimeContext& ctx, std::ostream& os) {
  os << "gemm isa: " << GemmIsaName(ActiveGemmIsa()) << "\n";
  if (ctx.op_profiles().empty()) {
    os << "(no op profiles recorded — was set_profiling(true) active?)\n";
  } else {
    PrintProfileRows(ctx.op_profiles(), "op profile", "out MiB", os);
  }
  if (!ctx.backward_profiles().empty()) {
    PrintProfileRows(ctx.backward_profiles(), "backward op profile",
                     "grad MiB", os);
  }
  PrintArenaTrailer(ctx, os);
}

bool GradEnabled() { return RuntimeContext::Current().grad_enabled(); }

NoGradGuard::NoGradGuard()
    : ctx_(&RuntimeContext::Current()), prev_(ctx_->grad_enabled()) {
  ctx_->set_grad_enabled(false);
}

NoGradGuard::~NoGradGuard() { ctx_->set_grad_enabled(prev_); }

}  // namespace autograd
}  // namespace metalora
