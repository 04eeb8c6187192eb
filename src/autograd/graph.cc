#include "autograd/graph.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "autograd/op.h"
#include "common/string_util.h"
#include "tensor/tensor_ops.h"

namespace metalora {
namespace autograd {

namespace {

// Backward is a dependency-counted sweep: a variable's producer fires only
// after every consumer of that variable has contributed its gradient, which
// handles arbitrary DAGs (shared subexpressions, the MetaLoRA seed fan-out)
// with a single accumulation per edge.
struct BackwardState {
  std::unordered_map<VariableImpl*, int> pending;   // consumers not yet done
  std::unordered_map<VariableImpl*, Tensor> grads;  // accumulated so far
};

void CountConsumers(VariableImpl* root, BackwardState* state) {
  std::unordered_set<VariableImpl*> visited;
  std::vector<VariableImpl*> stack = {root};
  visited.insert(root);
  while (!stack.empty()) {
    VariableImpl* v = stack.back();
    stack.pop_back();
    if (!v->producer) continue;
    for (const Variable& in : v->producer->inputs()) {
      VariableImpl* vi = in.impl().get();
      if (vi == nullptr || !in.requires_grad()) continue;
      ++state->pending[vi];
      if (visited.insert(vi).second) stack.push_back(vi);
    }
  }
}

void Accumulate(BackwardState* state, RuntimeContext& ctx, VariableImpl* v,
                const Tensor& g) {
  auto it = state->grads.find(v);
  if (it == state->grads.end()) {
    // The first contribution becomes the mutable accumulator; in step-arena
    // mode it lives in the current generation like the rest of the sweep.
    state->grads.emplace(v, ctx.CloneForBackward(g));
  } else {
    AddInPlace(it->second, g);
  }
}

}  // namespace

Status BackwardWithGrad(const Variable& root, const Tensor& seed) {
  if (!root.defined()) {
    return Status::InvalidArgument("backward on undefined variable");
  }
  if (!root.requires_grad()) {
    return Status::InvalidArgument(
        "backward root does not require grad (no graph was recorded)");
  }
  if (!(seed.shape() == root.shape())) {
    return Status::InvalidArgument("seed gradient shape mismatch");
  }

  RuntimeContext& ctx = RuntimeContext::Current();
  BackwardState state;
  CountConsumers(root.impl().get(), &state);
  state.grads.emplace(root.impl().get(), ctx.CloneForBackward(seed));

  std::deque<VariableImpl*> ready = {root.impl().get()};
  while (!ready.empty()) {
    VariableImpl* v = ready.front();
    ready.pop_front();
    auto git = state.grads.find(v);
    ML_CHECK(git != state.grads.end());
    Tensor grad = std::move(git->second);
    state.grads.erase(git);

    if (!v->producer) {
      // Leaf: the fully accumulated gradient arrives here exactly once per
      // sweep (the dependency counter gates the ready queue). With a grad
      // sink installed, it goes into the sink — per-replica storage that
      // leaves the shared .grad buffers untouched so concurrent replicas
      // never race; the trainer reduces the sinks afterwards. The sink copy
      // is pinned to the heap in step-arena mode because it must survive
      // the replica's arena generation until the reduction runs.
      //
      // Without a sink: accumulate into the persistent .grad buffer. In
      // step-arena mode the swept gradient lives in the current arena
      // generation, but .grad must survive past the step (the optimizer
      // reads it), so the first contribution is pinned out to the heap.
      // Later contributions AddInPlace into that heap buffer.
      if (GradSink* sink = ctx.grad_sink()) {
        Tensor& dst = (*sink)[v];
        if (!dst.defined()) {
          dst = ctx.arena_backward() ? ctx.PinToHeap(grad) : std::move(grad);
        } else {
          AddInPlace(dst, grad);
        }
      } else if (!v->grad.defined()) {
        v->grad = ctx.arena_backward() ? ctx.PinToHeap(grad) : std::move(grad);
      } else {
        AddInPlace(v->grad, grad);
      }
      continue;
    }

    std::vector<Tensor> input_grads;
    {
      // Under profiling, one backward row per op (RecordBackward).
      ProfileScope prof(ctx, v->producer->name(), /*backward=*/true);
      input_grads = v->producer->Backward(ctx, grad);
      for (const Tensor& t : input_grads) prof.add_output(t);
    }
    const auto& inputs = v->producer->inputs();
    ML_CHECK_EQ(input_grads.size(), inputs.size())
        << "op " << v->producer->name()
        << " returned wrong number of gradients";
    for (size_t i = 0; i < inputs.size(); ++i) {
      VariableImpl* vi = inputs[i].impl().get();
      if (vi == nullptr || !inputs[i].requires_grad()) continue;
      ML_CHECK(input_grads[i].defined())
          << "op " << v->producer->name() << " produced no gradient for input "
          << i << " which requires grad";
      Accumulate(&state, ctx, vi, input_grads[i]);
      auto pit = state.pending.find(vi);
      ML_CHECK(pit != state.pending.end());
      if (--pit->second == 0) ready.push_back(vi);
    }
  }
  return Status::OK();
}

Status Backward(const Variable& root) {
  if (!root.defined()) {
    return Status::InvalidArgument("backward on undefined variable");
  }
  if (root.numel() != 1) {
    return Status::InvalidArgument(
        "Backward() requires a scalar root; use BackwardWithGrad");
  }
  Tensor seed = Tensor::Ones(root.shape());
  return BackwardWithGrad(root, seed);
}

std::string GraphStats::ToString() const {
  std::string out = StrFormat(
      "GraphStats{nodes=%lld, saved=%lld B in %lld tensors, peak_arena=%lld B",
      static_cast<long long>(node_count), static_cast<long long>(saved_bytes),
      static_cast<long long>(saved_tensor_count),
      static_cast<long long>(peak_arena_bytes));
  for (const auto& [name, count] : per_op_counts) {
    out += StrFormat(", %s=%lld", name.c_str(), static_cast<long long>(count));
  }
  out += "}";
  return out;
}

GraphStats CollectGraphStats(const Variable& root) {
  GraphStats stats;
  if (const WorkspaceArena* arena = RuntimeContext::Current().arena()) {
    stats.peak_arena_bytes = arena->peak_bytes();
  }
  if (!root.defined()) return stats;

  std::unordered_set<const Op*> visited;
  std::vector<const Op*> stack;
  if (const Op* op = root.producer().get()) {
    visited.insert(op);
    stack.push_back(op);
  }
  while (!stack.empty()) {
    const Op* op = stack.back();
    stack.pop_back();
    ++stats.node_count;
    ++stats.per_op_counts[op->name()];
    stats.saved_bytes += op->saved_bytes();
    stats.saved_tensor_count += op->saved_tensor_count();
    for (const Variable& in : op->inputs()) {
      const Op* next = in.producer().get();
      if (next != nullptr && visited.insert(next).second) {
        stack.push_back(next);
      }
    }
  }
  return stats;
}

}  // namespace autograd
}  // namespace metalora
