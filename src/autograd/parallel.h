// Data-parallel no-grad execution for the dataset-scale eval paths.
//
// Feature extraction over a dataset and query-blocked KNN split their work
// into fixed-size blocks that write disjoint outputs. ParallelApplyNoGrad
// runs those blocks as one ThreadPool::ParallelFor, each chunk of blocks in
// its own no-grad RuntimeContext with a private scratch arena. Block
// boundaries depend only on the block size, never on the thread count, so
// results are identical to running the blocks one after another.
#ifndef METALORA_AUTOGRAD_PARALLEL_H_
#define METALORA_AUTOGRAD_PARALLEL_H_

#include <cstdint>
#include <functional>

#include "autograd/runtime_context.h"
#include "common/thread_pool.h"

namespace metalora {
namespace autograd {

/// Splits [begin, end) into fixed-size blocks of `block` and calls
/// fn(lo, hi, ctx) once per block, where ctx is a no-grad RuntimeContext
/// whose scratch WorkspaceArena is private to the executing chunk and
/// Reset() before every block. fn must write only to per-range disjoint
/// outputs, so results never depend on the schedule. Anything fn keeps
/// beyond the call must be copied out of the arena. `pool` of nullptr means
/// GlobalThreadPool(). Runs the blocks in order on the caller, with a single
/// scratch arena, on a zero-worker pool or when called from inside a
/// ParallelFor chunk or pool task.
void ParallelApplyNoGrad(
    int64_t begin, int64_t end, int64_t block,
    const std::function<void(int64_t, int64_t, RuntimeContext&)>& fn,
    ThreadPool* pool = nullptr);

}  // namespace autograd
}  // namespace metalora

#endif  // METALORA_AUTOGRAD_PARALLEL_H_
