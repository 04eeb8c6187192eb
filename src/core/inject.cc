#include "core/inject.h"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include "core/metalora_conv.h"
#include "core/metalora_linear.h"
#include "core/moe_lora.h"
#include "core/multi_lora.h"
#include "core/tn_adapter.h"
#include "nn/conv2d.h"
#include "nn/linear.h"

namespace metalora {
namespace core {

void InjectionResult::BindFeatures(const nn::Variable& features) const {
  for (Adapter* a : adapters) a->SetFeatures(features);
}

void InjectionResult::BindTaskIds(const std::vector<int64_t>& task_ids) const {
  for (Adapter* a : adapters) a->SetTaskIds(task_ids);
}

void InjectionResult::PrepareReplicas(int n) const {
  for (Adapter* a : adapters) a->EnsureReplicaSlots(n);
}

namespace {

/// LoTR cross-layer sharing state, keyed by base-layer geometry: (0, in,
/// out, 0, 0, 0) for linears, (1, in, out, kernel, stride, padding) for
/// convs. The first layer of a geometry encountered in traversal order
/// becomes the owner of the group's registered shared factors; its share()
/// (Variable copies aliasing the owner's storage) is kept here so later
/// members can join. Traversal order is deterministic (NamedChildren
/// snapshot), so the owner — and therefore which module's StateDict
/// carries "lotr_down"/"lotr_up" — is deterministic too.
using GeometryKey =
    std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t, int64_t>;
using SharedGroups = std::map<GeometryKey, TnAdapter::SharedFactors>;

/// Builds the chain adapter for `base`, joining the geometry group of `key`
/// when the kind shares factors (founding it if this is the first member).
template <typename Base>
std::unique_ptr<Adapter> WrapChain(std::unique_ptr<Base> base,
                                   const AdapterOptions& options,
                                   const GeometryKey& key,
                                   SharedGroups* groups,
                                   InjectionResult* result) {
  const bool shared = TnAdapter::SharesFactors(options.kind);
  auto it = shared ? groups->find(key) : groups->end();
  const TnAdapter::SharedFactors* share =
      it != groups->end() ? &it->second : nullptr;
  auto adapter = std::make_unique<TnAdapter>(std::move(base), options, share);
  if (shared && share == nullptr) {
    groups->emplace(key, adapter->share());
    ++result->num_shared_groups;
  }
  return adapter;
}

std::unique_ptr<Adapter> WrapConv(std::unique_ptr<nn::Conv2d> base,
                                  const AdapterOptions& options,
                                  SharedGroups* groups,
                                  InjectionResult* result) {
  switch (options.kind) {
    case AdapterKind::kLora:
    case AdapterKind::kMetaLoraCp:
    case AdapterKind::kLotr:
    case AdapterKind::kMetaLotr:
    case AdapterKind::kTt:
    case AdapterKind::kMetaTt: {
      const GeometryKey key{1,
                            base->in_channels(),
                            base->out_channels(),
                            base->geom().kernel_h,
                            base->geom().stride,
                            base->geom().padding};
      return WrapChain(std::move(base), options, key, groups, result);
    }
    case AdapterKind::kMultiLora:
      return std::make_unique<MultiLoraConv>(std::move(base), options);
    case AdapterKind::kMetaLoraTr:
      return std::make_unique<MetaLoraTrConv>(std::move(base), options);
    case AdapterKind::kMoeLora:
      return std::make_unique<MoeLoraConv>(std::move(base), options);
    case AdapterKind::kNone:
      break;
  }
  ML_CHECK(false) << "WrapConv: bad kind";
  return nullptr;
}

std::unique_ptr<Adapter> WrapLinear(std::unique_ptr<nn::Linear> base,
                                    const AdapterOptions& options,
                                    SharedGroups* groups,
                                    InjectionResult* result) {
  switch (options.kind) {
    case AdapterKind::kLora:
    case AdapterKind::kMetaLoraCp:
    case AdapterKind::kLotr:
    case AdapterKind::kMetaLotr:
    case AdapterKind::kTt:
    case AdapterKind::kMetaTt: {
      const GeometryKey key{0, base->in_features(), base->out_features(),
                            0, 0, 0};
      return WrapChain(std::move(base), options, key, groups, result);
    }
    case AdapterKind::kMultiLora:
      return std::make_unique<MultiLoraLinear>(std::move(base), options);
    case AdapterKind::kMetaLoraTr:
      return std::make_unique<MetaLoraTrLinear>(std::move(base), options);
    case AdapterKind::kMoeLora:
      return std::make_unique<MoeLoraLinear>(std::move(base), options);
    case AdapterKind::kNone:
      break;
  }
  ML_CHECK(false) << "WrapLinear: bad kind";
  return nullptr;
}

void InjectRecursive(nn::Module* node, const AdapterOptions& options,
                     const InjectionFilter& filter, uint64_t* adapter_index,
                     SharedGroups* groups, InjectionResult* result) {
  // Snapshot names first: we mutate the child list while iterating.
  std::vector<std::string> names;
  for (auto& [name, child] : node->NamedChildren()) names.push_back(name);

  for (const std::string& name : names) {
    nn::Module* child = node->Child(name);
    const bool skipped =
        std::find(filter.skip_names.begin(), filter.skip_names.end(), name) !=
        filter.skip_names.end();

    const bool is_conv = dynamic_cast<nn::Conv2d*>(child) != nullptr;
    const bool is_linear = dynamic_cast<nn::Linear*>(child) != nullptr;

    if (!skipped && is_conv && filter.adapt_convs) {
      std::unique_ptr<nn::Module> taken = node->TakeChild(name);
      std::unique_ptr<nn::Conv2d> conv(
          static_cast<nn::Conv2d*>(taken.release()));
      AdapterOptions opts = options;
      opts.seed = options.seed + 1000003ull * (*adapter_index)++;
      std::unique_ptr<Adapter> adapter =
          WrapConv(std::move(conv), opts, groups, result);
      result->adapters.push_back(adapter.get());
      result->adapter_param_count += adapter->AdapterParamCount();
      ++result->num_wrapped_convs;
      node->AdoptChild(name, std::move(adapter));
    } else if (!skipped && is_linear && filter.adapt_linears) {
      std::unique_ptr<nn::Module> taken = node->TakeChild(name);
      std::unique_ptr<nn::Linear> lin(
          static_cast<nn::Linear*>(taken.release()));
      AdapterOptions opts = options;
      opts.seed = options.seed + 1000003ull * (*adapter_index)++;
      std::unique_ptr<Adapter> adapter =
          WrapLinear(std::move(lin), opts, groups, result);
      result->adapters.push_back(adapter.get());
      result->adapter_param_count += adapter->AdapterParamCount();
      ++result->num_wrapped_linears;
      node->AdoptChild(name, std::move(adapter));
    } else {
      InjectRecursive(child, options, filter, adapter_index, groups, result);
    }
  }
}

}  // namespace

Result<InjectionResult> InjectAdapters(nn::Module* root,
                                       const AdapterOptions& options,
                                       const InjectionFilter& filter) {
  if (root == nullptr) {
    return Status::InvalidArgument("InjectAdapters: null model");
  }
  Status s = ValidateAdapterOptions(options);
  if (!s.ok()) return s;

  // Freeze everything first; adapters introduce the only trainable state.
  root->SetTrainable(false);

  InjectionResult result;
  if (options.kind == AdapterKind::kNone) return result;

  uint64_t adapter_index = 0;
  SharedGroups groups;
  InjectRecursive(root, options, filter, &adapter_index, &groups, &result);
  if (result.adapters.empty()) {
    return Status::FailedPrecondition(
        "no adaptable Conv2d/Linear leaves found under the filter");
  }
  return result;
}

}  // namespace core
}  // namespace metalora
