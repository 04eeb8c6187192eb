// One tensor-network chain adapter for the LoRA-like families:
//
//   y = base(x) + (alpha/R) · U · [G] · [diag(c)] · D · x
//
// Paper Eq. 6 is LoRA with a per-input diagonal core, ΔW = A·diag(c)·B, and
// static LoRA is the case c ≡ 1. LoTR (arXiv:2402.01376) inserts a thin
// per-layer core G ∈ R^{R×R} and shares D and U across a geometry group;
// tensor-train adapters (LoRTA / Joint-TT) contract D and U out of smaller
// cores. The families are points of one chain:
//
//   kind          D (down, R×I)          c     G           U (up, O×R)
//   kLora         lora_a                 -     -           lora_b
//   kMetaLoraCp   lora_a                 yes   -           lora_b
//   kLotr         lotr_down (shared)     -     lotr_core   lotr_up (shared)
//   kMetaLotr     lotr_down (shared)     yes   lotr_core   lotr_up (shared)
//   kTt           tt_in_a·tt_in_b        -     -           tt_out_a·tt_out_b
//   kMetaTt       (conv: tt_channel·     yes   -           (conv: tt_out)
//                  tt_spatial)
//
// The last zero-initialized factor pins the pre-trained start point: G when
// the chain has one (U is then Gaussian, since a zero U on a zero G would
// never receive gradient), otherwise U or its last TT core. The seed c is
// generated per input by the MappingNet and served through the
// ConditioningCache (SeedOrCompute), exactly once per forward.
//
// Linear and conv are two lowerings of the same chain:
//   - Linear runs it as GEMMs. Dense factors go through Linear (x·Wᵀ, with
//     D as [R, I] and U as [O, R]); TT factors go through Matmul on their
//     contracted forms D [I, R] and U [R, O], so no activation transposes
//     are needed. c scales the R columns (Mul), repeated per token for
//     token-wise layers.
//   - Conv (Eq. 5, Fig. 3) makes D a conv to R channels with the base
//     geometry, applies c with ScaleChannels, and runs G and U as 1×1
//     convs.
//
// Which factors a chain has is derived from (AdapterKind, base kind) and is
// not user-settable. Parameter names, Rng draw order and registration order
// are those of the family, so fresh-init bytes and checkpoints are stable
// per kind.
//
// LoTR group sharing: the first adapter of a group owns and Registers D
// and U — StateDict, optimizers and TrainableParamCount see them exactly
// once. Later members receive the owner's share() and hold plain Variable
// copies (Variables share state across copies), unregistered, so every
// member reads and backpropagates into the same storage.
// AdapterParamCount() counts the shared factors only on the owner; summing
// it over a group equals the group's true trainable count.
#ifndef METALORA_CORE_TN_ADAPTER_H_
#define METALORA_CORE_TN_ADAPTER_H_

#include <memory>

#include "core/adapter_config.h"
#include "core/conditioning_cache.h"
#include "core/mapping_net.h"
#include "nn/conv2d.h"
#include "nn/linear.h"

namespace metalora {
namespace core {

class TnAdapter : public Adapter {
 public:
  /// D and U of one LoTR geometry group. Copies alias the owner's storage.
  struct SharedFactors {
    Variable down;  // linear: [R, I]; conv: [R, I, K, K]
    Variable up;    // [O, R]
  };

  /// True for the kinds whose D and U are shared per geometry group
  /// (kLotr, kMetaLotr). TnAdapter implements kLora, kMetaLoraCp, kLotr,
  /// kMetaLotr, kTt and kMetaTt.
  static bool SharesFactors(AdapterKind kind);

  /// Takes ownership of the frozen base layer. For the group-shared kinds,
  /// `share == nullptr` makes this adapter the owner of freshly initialized
  /// D and U; otherwise it joins the group, aliasing `share`'s storage
  /// without registering it.
  TnAdapter(std::unique_ptr<nn::Linear> base, const AdapterOptions& options,
            const SharedFactors* share = nullptr);
  TnAdapter(std::unique_ptr<nn::Conv2d> base, const AdapterOptions& options,
            const SharedFactors* share = nullptr);

  /// Seeded kinds require SetFeatures(features) earlier in the same batch.
  Variable Forward(const Variable& x) override;

  int64_t AdapterParamCount() const override;

  /// The seed cache consulted by no-grad forwards; nullptr for static
  /// kinds (see conditioning_cache.h).
  ConditioningCache* conditioning_cache() override { return cache_.get(); }

  /// Materializes ΔW = (alpha/R)·U·G·diag(c)·D in the base weight's layout
  /// ([O, I] or [O, I, K, K]). `seed` is one sample's c [R]; nullptr means
  /// c ≡ 1 (analysis/tests and Merge).
  Tensor DeltaWeight(const Tensor* seed = nullptr) const;

  /// Folds ΔW into the base weight (inference fast path); Forward then
  /// skips the chain until Unmerge(). Seeded kinds cannot merge: their ΔW
  /// depends on the input.
  void Merge();
  void Unmerge();
  bool merged() const { return merged_; }

  /// The group's shared factors, for wiring further members.
  SharedFactors share() const { return {down_, up_}; }
  bool owns_shared_factors() const { return owns_shared_; }

  nn::Module* base() { return base_; }
  /// nullptr for static kinds.
  MappingNet* mapping_net() { return mapping_; }

 private:
  /// The factors a chain has, derived from (kind, lowering).
  struct Chain {
    bool tt_down = false;  // D contracted from two TT cores, else dense
    bool tt_up = false;    // U contracted from two TT cores, else dense
    bool core = false;     // LoTR's per-layer G [R, R]
    bool seeded = false;   // c generated per input by the MappingNet
    bool shared = false;   // D and U shared across a geometry group
  };
  static Chain ChainFor(AdapterKind kind, bool conv);

  void Init(std::unique_ptr<nn::Module> base, const SharedFactors* share);

  /// D in the layout its lowering consumes: linear dense [R, I] (Linear),
  /// linear TT [I, R] (Matmul), conv [R, I, K, K] (Conv2d).
  Variable DownWeight() const;
  /// h·Wᵀ over the rank channels: Linear, or a 1×1 conv for the conv
  /// lowering. W is G [R, R] or a dense U [O, R].
  Variable MixRank(const Variable& h, const Variable& w) const;
  /// Plain-tensor D as [R, I·K·K] and U as [O, R], for DeltaWeight.
  Tensor DownMatrix() const;
  Tensor UpMatrix() const;

  Chain chain_;
  nn::Module* base_ = nullptr;
  nn::Linear* linear_ = nullptr;  // exactly one of linear_/conv_ is set
  nn::Conv2d* conv_ = nullptr;
  MappingNet* mapping_ = nullptr;
  int64_t in_ = 0, out_ = 0, k_ = 1;  // k_ = 1 for the linear lowering
  int64_t i2_ = 0, o1_ = 0;           // TT-linear mode splits (tn::TtSplitDim)
  Variable down_;     // dense D, or the first TT core of D
  Variable down_tt_;  // the second TT core of D
  Variable up_;       // dense U, or the first TT core of U
  Variable up_tt_;    // the second TT core of U
  Variable core_;     // G [R, R]
  float scaling_ = 1.0f;
  bool owns_shared_ = true;
  bool merged_ = false;
  std::unique_ptr<ConditioningCache> cache_;  // seeded kinds only
  uint64_t cache_salt_ = 0;
};

}  // namespace core
}  // namespace metalora

#endif  // METALORA_CORE_TN_ADAPTER_H_
