#include "core/adapter_config.h"

#include "autograd/runtime_context.h"
#include "common/check.h"

namespace metalora {
namespace core {

const Adapter::ReplicaBinding& Adapter::CurrentSlot() const {
  const int id = autograd::RuntimeContext::Current().replica_id();
  ML_CHECK_GE(id, 0);
  ML_CHECK_LT(static_cast<size_t>(id), bindings_.size())
      << "replica binding slot " << id
      << " not prepared; call EnsureReplicaSlots before forking lanes";
  return bindings_[static_cast<size_t>(id)];
}

Adapter::ReplicaBinding& Adapter::CurrentSlot() {
  return const_cast<ReplicaBinding&>(
      static_cast<const Adapter*>(this)->CurrentSlot());
}

void Adapter::SetFeatures(const nn::Variable& features) {
  CurrentSlot().features = features;
}

void Adapter::SetTaskIds(const std::vector<int64_t>& task_ids) {
  CurrentSlot().task_ids = task_ids;
}

void Adapter::EnsureReplicaSlots(int n) {
  ML_CHECK_GT(n, 0);
  if (static_cast<size_t>(n) > bindings_.size()) {
    bindings_.resize(static_cast<size_t>(n));
  }
}

const nn::Variable& Adapter::bound_features() const {
  return CurrentSlot().features;
}

const std::vector<int64_t>& Adapter::bound_task_ids() const {
  return CurrentSlot().task_ids;
}

std::string AdapterKindName(AdapterKind kind) {
  switch (kind) {
    case AdapterKind::kNone:
      return "Original";
    case AdapterKind::kLora:
      return "LoRA";
    case AdapterKind::kMultiLora:
      return "Multi-LoRA";
    case AdapterKind::kMetaLoraCp:
      return "Meta-LoRA CP";
    case AdapterKind::kMetaLoraTr:
      return "Meta-LoRA TR";
    case AdapterKind::kMoeLora:
      return "MoE-LoRA";
    case AdapterKind::kLotr:
      return "LoTR";
    case AdapterKind::kMetaLotr:
      return "Meta-LoTR";
    case AdapterKind::kTt:
      return "TT-LoRA";
    case AdapterKind::kMetaTt:
      return "Meta-TT";
  }
  return "Unknown";
}

bool AdapterKindIsKnown(AdapterKind kind) {
  switch (kind) {
    case AdapterKind::kNone:
    case AdapterKind::kLora:
    case AdapterKind::kMultiLora:
    case AdapterKind::kMetaLoraCp:
    case AdapterKind::kMetaLoraTr:
    case AdapterKind::kMoeLora:
    case AdapterKind::kLotr:
    case AdapterKind::kMetaLotr:
    case AdapterKind::kTt:
    case AdapterKind::kMetaTt:
      return true;
  }
  return false;
}

bool AdapterKindNeedsFeatures(AdapterKind kind) {
  return kind == AdapterKind::kMetaLoraCp ||
         kind == AdapterKind::kMetaLoraTr || kind == AdapterKind::kMoeLora ||
         kind == AdapterKind::kMetaLotr || kind == AdapterKind::kMetaTt;
}

Status ValidateAdapterOptions(const AdapterOptions& options) {
  if (!AdapterKindIsKnown(options.kind)) {
    return Status::InvalidArgument(
        "options.kind: unknown adapter kind " +
        std::to_string(static_cast<int>(options.kind)));
  }
  if (options.kind == AdapterKind::kNone) return Status::OK();
  // 4096 is far above any adapter this codebase builds; a spec beyond it is
  // corrupt, not ambitious.
  if (options.rank <= 0 || options.rank > 4096) {
    return Status::InvalidArgument(
        "options.rank: must be in (0, 4096], got " +
        std::to_string(options.rank));
  }
  if (AdapterKindNeedsFeatures(options.kind)) {
    if (options.feature_dim <= 0 || options.feature_dim > (1 << 20)) {
      return Status::InvalidArgument(
          "options.feature_dim: " + AdapterKindName(options.kind) +
          " needs a feature_dim in (0, 2^20], got " +
          std::to_string(options.feature_dim));
    }
    if (options.mapping_hidden <= 0 || options.mapping_hidden > (1 << 20)) {
      return Status::InvalidArgument(
          "options.mapping_hidden: must be in (0, 2^20], got " +
          std::to_string(options.mapping_hidden));
    }
  }
  if (options.kind == AdapterKind::kMultiLora ||
      options.kind == AdapterKind::kMoeLora) {
    // Each task is a branch with its own factors; 4096 caps them as rank
    // is capped, so a crafted spec cannot request 2^30 branches.
    if (options.num_tasks <= 0 || options.num_tasks > 4096) {
      return Status::InvalidArgument(
          "options.num_tasks: must be in (0, 4096], got " +
          std::to_string(options.num_tasks));
    }
  }
  if (options.kind == AdapterKind::kMultiLora &&
      options.multi_lora_mode != MultiLoraMode::kSum &&
      options.multi_lora_mode != MultiLoraMode::kOracleRouting) {
    return Status::InvalidArgument(
        "options.multi_lora_mode: unknown mode " +
        std::to_string(static_cast<int>(options.multi_lora_mode)));
  }
  return Status::OK();
}

}  // namespace core
}  // namespace metalora
