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

  // One chunk of consecutive blocks per task; a chunk shares one scratch
  // arena, Reset between blocks. Block boundaries — and therefore every
  // number fn computes — are independent of the chunking.
  struct ChunkState {
    RuntimeContext ctx;
    std::unique_ptr<WorkspaceArena> arena;
  };
  auto run_chunk = [&](ChunkState& state, int64_t blk_lo, int64_t blk_hi) {
    RuntimeContextScope scope(&state.ctx);
    for (int64_t b = blk_lo; b < blk_hi; ++b) {
      const int64_t lo = begin + b * block;
      const int64_t hi = std::min(end, lo + block);
      state.arena->NextGeneration();
      fn(lo, hi, state.ctx);
    }
  };

  const int64_t nchunks =
      (p.num_threads() == 0 || ThreadPool::InWorkerThread())
          ? 1
          : std::min<int64_t>(nblocks, p.num_threads() + 1);
  const int64_t blocks_per_chunk = (nblocks + nchunks - 1) / nchunks;

  std::vector<std::unique_ptr<ChunkState>> chunks;
  chunks.reserve(static_cast<size_t>(nchunks));
  RuntimeContext& caller = RuntimeContext::Current();
  for (int64_t c = 0; c < nchunks; ++c) {
    auto state = std::make_unique<ChunkState>();
    state->ctx.set_grad_enabled(false);
    state->ctx.set_autocast(caller.autocast());
    state->arena = AcquireScratchArena();
    state->ctx.set_arena(state->arena.get());
    chunks.push_back(std::move(state));
  }

  auto latch = std::make_shared<Latch>(nchunks - 1);
  for (int64_t c = 1; c < nchunks; ++c) {
    ChunkState* state = chunks[static_cast<size_t>(c)].get();
    const int64_t blk_lo = c * blocks_per_chunk;
    const int64_t blk_hi = std::min(nblocks, blk_lo + blocks_per_chunk);
    p.Schedule([&run_chunk, state, blk_lo, blk_hi, latch] {
      run_chunk(*state, blk_lo, blk_hi);
      latch->CountDown();
    });
  }
  run_chunk(*chunks[0], 0, std::min(nblocks, blocks_per_chunk));
  latch->Wait();

  for (auto& state : chunks) {
    caller.MergeChildStats(state->ctx);
    ReleaseScratchArena(std::move(state->arena));
  }
}

}  // namespace autograd
}  // namespace metalora
