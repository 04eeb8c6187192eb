// One tensor-network chain adapter for every adapter family:
//
//   y = base(x) + Σ_e w_e · (alpha/R) · U_e · [G] · [diag(c)] · D_e · x
//
// Paper Eq. 6 is LoRA with a per-input diagonal core, ΔW = A·diag(c)·B, and
// static LoRA is the case c ≡ 1. LoTR (arXiv:2402.01376) inserts a thin
// per-layer core G ∈ R^{R×R} and shares D and U across a geometry group;
// tensor-train adapters (LoRTA / Joint-TT) contract D and U out of smaller
// cores. MetaLoRA-TR (Eq. 7) is a dense D to R² bond channels followed by a
// generated U. Multi-LoRA and MoE-LoRA are weighted sums of E LoRA
// branches. The families are points of one chain:
//
//   kind          D (down, R×I)        c    G          U (up, O×R)
//   kLora         lora_a               -    -          lora_b
//   kMetaLoraCp   lora_a               yes  -          lora_b
//   kLotr         lotr_down (shared)   -    lotr_core  lotr_up (shared)
//   kMetaLotr     lotr_down (shared)   yes  lotr_core  lotr_up (shared)
//   kTt           tt_in_a·tt_in_b      -    -          tt_out_a·tt_out_b
//   kMetaTt       (conv: tt_channel·   yes  -          (conv: tt_out)
//                  tt_spatial)
//   kMetaLoraTr   core_a (R² rows)     -    -          generated M_n
//   kMultiLora    [lora_a{e}; …]       W·P  -          [lora_b{e} …]
//   kMoeLora      [lora_a{e}; …]       W·P  -          [lora_b{e} …]
//
// Every kind has one branch (E = 1, w_e = 1) except Multi-LoRA and
// MoE-LoRA, whose branches stack into one chain: see "Branch sums" below.
//
// The last zero-initialized factor pins the pre-trained start point: G when
// the chain has one (U is then Gaussian, since a zero U on a zero G would
// never receive gradient), otherwise U, its last TT core, or TR's core_b.
//
// A chain with a MappingNet generates one factor per input and serves it
// through the ConditioningCache (GetOrCompute), exactly once per forward:
//   - the seed c [N, R] of the Meta kinds;
//   - TR's recovery M_n = C_n·B [N, R², O]: the generated ring core C_n
//     [R, R] contracted with core_b [R, O, R], so a warm no-grad forward
//     skips both the mapping net and the B contraction.
//
// Branch sums: E = num_tasks branches, each with its own factor set, run
// as one seeded chain over the stacked factors:
//   Σ_e w_{n,e}·U_e·D_e·x = [U_1 … U_E]·diag(c_n)·[D_1; …; D_E]·x,
// where c = W·P repeats branch e's weight w_{n,e} over its R rank channels
// (P [E, E·R] is a constant 0/1 expansion). Multi-LoRA splits the rank
// budget (each branch has rank max(1, R / E)) and weights a branch by a
// learned scalar (kSum: W is the scale{e} row) or by the oracle task mask
// (kOracleRouting, needs SetTaskIds: W is one-hot per bound task id,
// repeated to x's rows like a seed, so token-wise layers route too, and a
// branch with no row in the batch stays out of the stack, so its factors
// get no gradient). MoE-LoRA gives every expert the full rank and weights it by
// softmax(gate(features)), the gate being an nn::Linear child "gate" over
// the bound features.
//
// Linear and conv are two lowerings of the same chain:
//   - Linear runs it as GEMMs. Dense factors go through Linear (x·Wᵀ, with
//     D as [R, I] and U as [O, R]); TT factors and TR's D go through Matmul
//     on their contracted forms D [I, R] and U [R, O], so no activation
//     transposes are needed. c scales the R columns (Mul), repeated per
//     token for token-wise layers; TR applies M_n with BatchedMatmul.
//   - Conv (Eq. 5, Fig. 3) makes D a conv to R channels with the base
//     geometry, applies c per channel, and runs G and U as 1×1 convs; TR
//     applies M_n as a per-sample 1×1 conv. Every conv chain, a branch
//     sum's stack included, runs all of it, base conv included, as one
//     autograd::AdaptedConv2d: W and D are row-stacked into one GEMM per
//     sample (the im2col panels are packed once), and the tail runs inside
//     the op with the kernels of ScaleChannels, Conv2d and
//     PerSamplePointwiseConv, so y and every parameter gradient are those
//     of the op sequence; x's gradient is one GEMM over [W; D]ᵀ.
//
// Which factors a chain has is derived from (AdapterKind, multi_lora_mode,
// base kind) and is not user-settable. Parameter names, Rng draw order and
// registration order are those of the family, so fresh-init bytes and
// checkpoints are stable per kind.
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
#include <vector>

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
  /// (kLotr, kMetaLotr).
  static bool SharesFactors(AdapterKind kind);

  /// Takes ownership of the frozen base layer. Every kind but kNone is a
  /// chain. For the group-shared kinds, `share == nullptr` makes this
  /// adapter the owner of freshly initialized D and U; otherwise it joins
  /// the group, aliasing `share`'s storage without registering it.
  TnAdapter(std::unique_ptr<nn::Linear> base, const AdapterOptions& options,
            const SharedFactors* share = nullptr);
  TnAdapter(std::unique_ptr<nn::Conv2d> base, const AdapterOptions& options,
            const SharedFactors* share = nullptr);

  /// Conditioned kinds (AdapterKindNeedsFeatures) require SetFeatures, and
  /// oracle-routed Multi-LoRA SetTaskIds, earlier in the same batch.
  Variable Forward(const Variable& x) override;

  int64_t AdapterParamCount() const override;

  /// The cache of generated factors consulted by no-grad forwards; nullptr
  /// for the kinds without a mapping net (see conditioning_cache.h).
  ConditioningCache* conditioning_cache() override { return cache_.get(); }

  /// Materializes ΔW = (alpha/R)·U·G·diag(c)·D of a single-branch chain in
  /// the base weight's layout ([O, I] or [O, I, K, K]). `seed` is one
  /// sample's generated factor: c [R], or TR's ring core C [R, R], which
  /// TR requires. nullptr means c ≡ 1 (analysis/tests and Merge).
  Tensor DeltaWeight(const Tensor* seed = nullptr) const;

  /// Folds ΔW into the base weight (inference fast path); Forward then
  /// skips the chain until Unmerge(). Only static single-branch chains can
  /// merge: a generated factor depends on the input, and a branch sum has
  /// no single ΔW.
  void Merge();
  void Unmerge();
  bool merged() const { return merged_; }

  /// The group's shared factors, for wiring further members.
  SharedFactors share() const { return {branches_[0].down, branches_[0].up}; }
  bool owns_shared_factors() const { return owns_shared_; }

  nn::Module* base() { return base_; }
  /// nullptr for the kinds without a mapping net.
  MappingNet* mapping_net() { return mapping_; }

 private:
  /// What weights the branches of a sum: W of the seed c = W·P.
  enum class BranchWeight {
    kNone,      // one unweighted branch
    kScale,     // a learned scalar per branch (Multi-LoRA kSum)
    kTaskMask,  // the oracle task mask (Multi-LoRA kOracleRouting)
    kGate,      // a softmax gate column over the features (MoE-LoRA)
  };

  /// The factors a chain has, derived from (kind, multi_lora_mode,
  /// lowering).
  struct Chain {
    bool tt_down = false;  // D contracted from two TT cores, else dense
    bool tt_up = false;    // U contracted from two TT cores, else dense
    bool core = false;     // LoTR's per-layer G [R, R]
    bool seeded = false;   // c generated per input by the MappingNet
    bool shared = false;   // D and U shared across a geometry group
    bool generated_up = false;  // U generated per input: TR's M_n = C_n·B
    int branches = 1;           // E
    BranchWeight weight = BranchWeight::kNone;
    int64_t rank = 0;  // R of one branch
  };
  static Chain ChainFor(const AdapterOptions& options, bool conv);

  /// One branch's factors.
  struct Factors {
    Variable down;     // dense D, or the first TT core of D
    Variable down_tt;  // the second TT core of D
    Variable up;       // dense U, the first TT core of U, or TR's core_b
    Variable up_tt;    // the second TT core of U
    Variable scale;    // the learned branch weight (kScale)
  };

  void Init(std::unique_ptr<nn::Module> base, const SharedFactors* share);
  /// Draws and registers branch `e`'s factors (all of them on a group
  /// owner; none of D and U on a member).
  void InitBranch(int e, Rng& rng, const SharedFactors* share);

  /// The factors one forward runs: one branch's, or a branch sum's
  /// stacked into one chain.
  struct Operands {
    Variable down;  // D in its lowering's layout (see DownWeight)
    Variable seed;  // c [rows or feature rows, R'], or undefined
    Variable up;    // U [O, R'], TR's M_n, or the first TT core of U
  };
  /// The generated factor of a chain with a mapping net, served through
  /// the conditioning cache: the seed c [N, R], or TR's recovery M_n.
  Variable Generated(const Factors& f, const Variable& features);
  /// A branch sum as one chain over `rows` rows: D = [D_e; …] [E'·R, …],
  /// U = [U_e …] [O, E'·R] and c = W·P [rows, E'·R], over the E' branches
  /// in the graph (under oracle routing, those with a row in the batch).
  /// Undefined operands when no branch has a row.
  Operands StackBranches(const Variable& features, int64_t rows);
  /// The linear lowering's U·[G]·[diag(c)]·D·x, before scaling.
  Variable LinearDelta(const Variable& x, const Operands& ops) const;
  /// D in the layout its lowering consumes: linear dense [R, I] (Linear),
  /// linear TT or TR [I, R] (Matmul), conv [R, I, K, K].
  Variable DownWeight(const Factors& f) const;
  /// TR's recovery M[n, (r0, r1), o] = Σ_r2 C[n, r2, r0]·B[r1, o, r2] from
  /// generated cores C [N, R, R]: [N, R², O] for the linear lowering,
  /// [N, O, R²] for the conv one.
  Variable Recovery(const Variable& core_b, const Variable& c) const;
  /// Plain-tensor D as [R, I·K·K] (TR: [R², I·K·K]) and U as [O, R], for
  /// DeltaWeight.
  Tensor DownMatrix() const;
  Tensor UpMatrix() const;

  Chain chain_;
  nn::Module* base_ = nullptr;
  nn::Linear* linear_ = nullptr;  // exactly one of linear_/conv_ is set
  nn::Conv2d* conv_ = nullptr;
  MappingNet* mapping_ = nullptr;
  nn::Linear* gate_ = nullptr;        // kGate only
  int64_t in_ = 0, out_ = 0, k_ = 1;  // k_ = 1 for the linear lowering
  int64_t i2_ = 0, o1_ = 0;           // TT-linear mode splits (tn::TtSplitDim)
  std::vector<Factors> branches_;
  Variable core_;  // G [R, R]
  float scaling_ = 1.0f;
  bool owns_shared_ = true;
  bool merged_ = false;
  std::unique_ptr<ConditioningCache> cache_;  // kinds with a mapping net
  uint64_t cache_salt_ = 0;
};

}  // namespace core
}  // namespace metalora

#endif  // METALORA_CORE_TN_ADAPTER_H_
