// Typed autograd op nodes.
//
// Every differentiable operation is a small class deriving from Op: its
// constructor captures what the backward pass needs as explicit SavedTensors
// (accounted, inspectable), and Backward(ctx, grad) maps the output gradient
// to one gradient per input. This replaces the earlier closure-based design
// (a LambdaNode capturing a std::function) which hid saved state inside
// opaque captures, copied per-op metadata through std::function's erasure,
// and made graph memory impossible to attribute. The free functions in
// ops.h are a stable facade over these classes — call sites never name an
// op type directly.
#ifndef METALORA_AUTOGRAD_OP_H_
#define METALORA_AUTOGRAD_OP_H_

#include <memory>
#include <utility>
#include <vector>

#include "autograd/runtime_context.h"
#include "autograd/variable.h"

namespace metalora {
namespace autograd {

/// A tensor pinned by an op for its backward pass. The wrapped Tensor shares
/// its buffer with the forward value (O(1)), but registering it through
/// Op::Save makes the retained bytes visible to GraphStats — the accounting
/// PyTorch spreads across saved_tensors hooks.
class SavedTensor {
 public:
  SavedTensor() = default;

  const Tensor& get() const { return tensor_; }
  bool defined() const { return tensor_.defined(); }
  int64_t bytes() const {
    return tensor_.defined()
               ? tensor_.numel() * static_cast<int64_t>(sizeof(float))
               : 0;
  }

 private:
  friend class Op;
  explicit SavedTensor(Tensor t) : tensor_(std::move(t)) {}

  Tensor tensor_;
};

/// Base class for all op nodes: op name, input edges, saved-tensor
/// accounting, and the virtual backward rule.
class Op {
 public:
  explicit Op(const char* name) : name_(name) {}
  virtual ~Op() = default;
  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;

  /// Returns one gradient per input (undefined Tensor for inputs that do not
  /// require grad — they are skipped during accumulation). `ctx` is the
  /// execution's runtime context (workspace, counters).
  virtual std::vector<Tensor> Backward(RuntimeContext& ctx,
                                       const Tensor& grad_output) = 0;

  const char* name() const { return name_; }

  const std::vector<Variable>& inputs() const { return inputs_; }
  void set_inputs(std::vector<Variable> inputs) { inputs_ = std::move(inputs); }

  /// Bytes pinned for backward via Save(), and how many tensors they span.
  int64_t saved_bytes() const { return saved_bytes_; }
  int64_t saved_tensor_count() const { return saved_count_; }

 protected:
  /// Registers `t` as retained-for-backward and returns the handle derived
  /// ops store as a member. Must be called from the constructor.
  SavedTensor Save(Tensor t) {
    SavedTensor saved(std::move(t));
    saved_bytes_ += saved.bytes();
    ++saved_count_;
    return saved;
  }

 private:
  const char* name_;
  std::vector<Variable> inputs_;
  int64_t saved_bytes_ = 0;
  int64_t saved_count_ = 0;
};

/// True if recording is on and any input needs grad.
bool AnyRequiresGrad(const std::vector<Variable>& inputs);

/// Resolves the forward-GEMM precision for a facade. Only the forward
/// facades consult the policy; every Backward() runs fp32 unconditionally
/// (the policy is no-grad-only anyway — PrecisionFor returns fp32 while
/// gradients are recorded). Facades whose operand layout can't use the
/// int8 prepacked form (no x·Wᵀ frozen weight) downgrade int8 to bf16.
OpPrecision ForwardGemmPrecision(RuntimeContext& ctx, bool int8_capable);

/// Builds the result Variable for an op: when gradients are being recorded
/// and some input requires them, constructs an OpT node (forwarding `args`
/// to its constructor), wires the input edges, and books the node on the
/// current context; otherwise returns a leaf and constructs nothing.
template <typename OpT, typename... Args>
Variable MakeOpResult(Tensor value, std::vector<Variable> inputs,
                      Args&&... args) {
  if (!AnyRequiresGrad(inputs)) {
    return Variable(std::move(value), /*requires_grad=*/false);
  }
  auto op = std::make_shared<OpT>(std::forward<Args>(args)...);
  op->set_inputs(std::move(inputs));
  RuntimeContext::Current().RecordNode(op->saved_bytes());
  return Variable::FromOp(std::move(value), std::move(op));
}

}  // namespace autograd
}  // namespace metalora

#endif  // METALORA_AUTOGRAD_OP_H_
