// Configuration shared by every adapter in the PEFT core, plus the adapter
// base class the injector and training loops program against.
#ifndef METALORA_CORE_ADAPTER_CONFIG_H_
#define METALORA_CORE_ADAPTER_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"

namespace metalora {
namespace core {

class ConditioningCache;

using nn::Variable;

/// The adaptation methods compared in the paper's Table I, plus the
/// tensor-adapter extensions (LoTR cross-layer sharing, tensor-train).
enum class AdapterKind {
  kNone,        // "Original": frozen backbone, no adaptation
  kLora,        // static LoRA (matrix) / Conv-LoRA (conv, Eq. 5)
  kMultiLora,   // per-task LoRA branches with task routing
  kMetaLoraCp,  // MetaLoRA, CP format (Eq. 6)
  kMetaLoraTr,  // MetaLoRA, TR format (Eq. 7)
  kMoeLora,     // mixture-of-experts LoRA (MOELoRA, cited as [14]; extension)
  kLotr,        // LoTR: cross-layer shared factors + thin per-layer core
  kMetaLotr,    // LoTR with the per-layer core modulated by a generated seed
  kTt,          // tensor-train factorized adapter (static)
  kMetaTt,      // tensor-train adapter with a generated bond seed
};

/// Stable display name ("Original", "LoRA", "Multi-LoRA", ...).
std::string AdapterKindName(AdapterKind kind);

/// True when `kind` is one of the AdapterKind enumerators. A spec decoded
/// from untrusted bytes can carry any integer; validation must reject it
/// instead of letting a switch fall through to a misleading default.
bool AdapterKindIsKnown(AdapterKind kind);

/// True for the conditioned kinds whose Forward requires SetFeatures
/// (MetaLoRA CP/TR, MoE-LoRA, Meta-LoTR, Meta-TT).
bool AdapterKindNeedsFeatures(AdapterKind kind);


/// How Multi-LoRA combines its branches.
enum class MultiLoraMode {
  /// All branches active with learnable per-branch scaling — the MultiLoRA
  /// baseline of Wang et al. (arXiv:2311.11501) cited by the paper. Needs no
  /// task ids. Default.
  kSum,
  /// Each sample routed to its task's branch using oracle task ids (an
  /// upper bound requiring metadata MetaLoRA does not need; ablation only).
  kOracleRouting,
};

struct AdapterOptions {
  AdapterKind kind = AdapterKind::kLora;
  int64_t rank = 4;
  /// LoRA scaling: the delta is multiplied by alpha / rank.
  float alpha = 8.0f;
  /// Multi-LoRA / MoE-LoRA: number of branches (= tasks for oracle
  /// routing, experts for MoE). Multi-LoRA splits the rank budget across
  /// its branches — each gets max(1, rank / num_tasks), per the MultiLoRA
  /// design — so total capacity stays comparable to plain LoRA; every MoE
  /// expert gets the full rank.
  int num_tasks = 1;
  /// Multi-LoRA: branch combination rule.
  MultiLoraMode multi_lora_mode = MultiLoraMode::kSum;
  /// MetaLoRA: dimensionality of the conditioning feature vector.
  int64_t feature_dim = 0;
  /// MetaLoRA: hidden width of the per-adapter mapping net.
  int64_t mapping_hidden = 16;
  /// Seed for adapter parameter init.
  uint64_t seed = 7;
};

/// Validates an AdapterOptions for construction/injection: known kind,
/// rank within (0, 4096], feature_dim/mapping_hidden positive for the
/// conditioned kinds, num_tasks within (0, 4096] for the multi-branch kinds
/// and a known multi_lora_mode for Multi-LoRA. The error names the
/// offending field. kNone is valid (freeze-only injection).
Status ValidateAdapterOptions(const AdapterOptions& options);

/// Base class of all adapters. An adapter is a Module that owns its frozen
/// base layer as the child "base" and adds a trainable low-rank path.
///
/// Bindings (conditioning features, task ids) are stored per replica: the
/// slot written by SetFeatures/SetTaskIds and read back by Forward (via
/// bound_features()/bound_task_ids()) is selected by the calling thread's
/// RuntimeContext::replica_id(). Single-replica code never notices — slot 0
/// always exists and replica_id defaults to 0 — while data-parallel lanes
/// each bind their own shard's features on the one shared module tree
/// without racing. Size the slots with EnsureReplicaSlots before forking.
class Adapter : public nn::Module {
 public:
  Adapter(std::string name, AdapterOptions options)
      : Module(std::move(name)), options_(std::move(options)) {}

  const AdapterOptions& options() const { return options_; }
  AdapterKind kind() const { return options_.kind; }

  /// Number of trainable parameters added by the adapter (excludes the
  /// frozen base layer).
  virtual int64_t AdapterParamCount() const = 0;

  /// The adapter's conditioning-keyed cache of generated factors, when the
  /// kind has one (see core::TnAdapter); nullptr otherwise. Lets code
  /// that handles adapters polymorphically — the serving registry, stats
  /// aggregation — reach the cache without downcasting per kind.
  virtual ConditioningCache* conditioning_cache() { return nullptr; }

  /// MetaLoRA / MoE adapters: binds the conditioning features
  /// [N, feature_dim] for the next Forward on the calling replica's slot.
  void SetFeatures(const nn::Variable& features);

  /// Multi-LoRA adapters: binds per-sample task ids for the next Forward
  /// on the calling replica's slot.
  void SetTaskIds(const std::vector<int64_t>& task_ids);

  /// Grows the binding-slot array to cover replica ids [0, n). Slot 0
  /// always exists. Call from the coordinator before forking replica
  /// lanes; must not run concurrently with lane execution. Existing
  /// bindings (including slot 0's) are preserved.
  void EnsureReplicaSlots(int n);

 protected:
  /// The features bound on the calling replica's slot; undefined Variable
  /// when SetFeatures has not been called for this replica.
  const nn::Variable& bound_features() const;

  /// The task ids bound on the calling replica's slot; empty when
  /// SetTaskIds has not been called for this replica.
  const std::vector<int64_t>& bound_task_ids() const;

  AdapterOptions options_;

 private:
  struct ReplicaBinding {
    nn::Variable features;
    std::vector<int64_t> task_ids;
  };
  const ReplicaBinding& CurrentSlot() const;
  ReplicaBinding& CurrentSlot();

  std::vector<ReplicaBinding> bindings_ = std::vector<ReplicaBinding>(1);
};

}  // namespace core
}  // namespace metalora

#endif  // METALORA_CORE_ADAPTER_CONFIG_H_
