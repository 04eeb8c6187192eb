#include "autograd/parallel.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"

namespace metalora {
namespace autograd {

namespace {

// Free list of scratch arenas for eval blocks. Arenas keep their grown
// blocks between uses, so steady-state calls do no heap allocation here; the
// list is tiny (bounded by peak concurrent tasks), so a mutex is fine.
std::mutex g_scratch_mu;
std::vector<std::unique_ptr<WorkspaceArena>> g_scratch_arenas;

std::unique_ptr<WorkspaceArena> AcquireScratchArena() {
  {
    std::lock_guard<std::mutex> lock(g_scratch_mu);
    if (!g_scratch_arenas.empty()) {
      std::unique_ptr<WorkspaceArena> arena =
          std::move(g_scratch_arenas.back());
      g_scratch_arenas.pop_back();
      return arena;
    }
  }
  return std::make_unique<WorkspaceArena>();
}

void ReleaseScratchArena(std::unique_ptr<WorkspaceArena> arena) {
  std::lock_guard<std::mutex> lock(g_scratch_mu);
  g_scratch_arenas.push_back(std::move(arena));
}

}  // namespace

void ParallelApplyNoGrad(
    int64_t begin, int64_t end, int64_t block,
    const std::function<void(int64_t, int64_t, RuntimeContext&)>& fn,
    ThreadPool* pool) {
  ML_CHECK_LE(begin, end);
  ML_CHECK_GT(block, 0);
  if (begin == end) return;
  ThreadPool& p = pool != nullptr ? *pool : GlobalThreadPool();
  const int64_t nblocks = (end - begin + block - 1) / block;

  // Each ParallelFor chunk of consecutive blocks runs in its own no-grad
  // context and shares one scratch arena, Reset between blocks. Block
  // boundaries — and therefore every number fn computes — are independent
  // of the chunking. A chunk's state lands in the slot of its first block,
  // and the join merges the slots in ascending order.
  struct ChunkState {
    RuntimeContext ctx;
    std::unique_ptr<WorkspaceArena> arena;
  };
  std::vector<std::unique_ptr<ChunkState>> slots(static_cast<size_t>(nblocks));
  RuntimeContext& caller = RuntimeContext::Current();
  const AutocastPolicy autocast = caller.autocast();
  p.ParallelFor(0, nblocks, [&](int64_t blk_lo, int64_t blk_hi) {
    auto state = std::make_unique<ChunkState>();
    state->ctx.set_grad_enabled(false);
    state->ctx.set_autocast(autocast);
    state->arena = AcquireScratchArena();
    state->ctx.set_arena(state->arena.get());
    RuntimeContextScope scope(&state->ctx);
    for (int64_t b = blk_lo; b < blk_hi; ++b) {
      const int64_t lo = begin + b * block;
      const int64_t hi = std::min(end, lo + block);
      state->arena->NextGeneration();
      fn(lo, hi, state->ctx);
    }
    slots[static_cast<size_t>(blk_lo)] = std::move(state);
  });

  for (auto& state : slots) {
    if (state == nullptr) continue;
    caller.MergeChildStats(state->ctx);
    ReleaseScratchArena(std::move(state->arena));
  }
}

}  // namespace autograd
}  // namespace metalora
