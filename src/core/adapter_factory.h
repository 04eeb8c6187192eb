// Adapter construction from a plain-data spec.
//
// The serving registry (serve/adapter_registry.h) catalogs thousands of
// named adapters but keeps only a budgeted subset resident; everything it
// needs to resurrect an evicted tenant is (a) this spec and (b) a
// checkpoint path. BuildAdapter is therefore deterministic: two calls with
// the same spec produce bitwise-identical freshly-initialized parameters,
// so spec + checkpoint fully determines an adapter's bytes — the property
// behind the registry's reload-after-evict bit-identity contract.
#ifndef METALORA_CORE_ADAPTER_FACTORY_H_
#define METALORA_CORE_ADAPTER_FACTORY_H_

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "core/adapter_config.h"

namespace metalora {
namespace core {

enum class BaseLayerKind { kLinear, kConv2d };

/// Geometry + init seed of the frozen base layer the adapter wraps.
struct BaseLayerSpec {
  BaseLayerKind kind = BaseLayerKind::kLinear;
  // kLinear.
  int64_t in_features = 0;
  int64_t out_features = 0;
  // kConv2d.
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t padding = 1;
  // Both.
  bool bias = true;
  uint64_t init_seed = 1;
};

/// Everything needed to (re)construct one tenant's adapter.
struct AdapterSpec {
  AdapterOptions options;
  BaseLayerSpec base;
};

/// Convenience constructors for the common shapes.
AdapterSpec LinearAdapterSpec(AdapterKind kind, int64_t in_features,
                              int64_t out_features, int64_t rank,
                              int64_t feature_dim, uint64_t seed);
AdapterSpec ConvAdapterSpec(AdapterKind kind, int64_t in_channels,
                            int64_t out_channels, int64_t kernel, int64_t rank,
                            int64_t feature_dim, uint64_t seed);

/// Validates a spec before construction: ValidateAdapterOptions on the
/// options (unknown kind, bad rank/feature_dim/...), then base-geometry
/// checks naming the offending field ("base.in_features", "base.kernel",
/// ...). kNone is rejected here — a registry entry with nothing to build is
/// a corrupt spec, never a silent default. A spec decoded from untrusted
/// bytes must flow through this (BuildAdapter calls it first) so no
/// constructor CHECK can abort the process on crafted input.
Status ValidateAdapterSpec(const AdapterSpec& spec);

/// Constructs the adapter the spec describes: the frozen base layer plus
/// the adapter path, freshly initialized from the spec's seeds.
/// InvalidArgument (via ValidateAdapterSpec) for AdapterKind::kNone, an
/// unknown kind, or degenerate geometry — the error names the field. The
/// result is a core::TnAdapter; its conditioning_cache() is non-null
/// exactly for the kinds with a mapping net (every conditioned kind but
/// MoE-LoRA). LoTR adapters are built standalone (each owns its factors);
/// cross-layer sharing is an injection-time concern (see core/inject.h).
Result<std::unique_ptr<Adapter>> BuildAdapter(const AdapterSpec& spec);

}  // namespace core
}  // namespace metalora

#endif  // METALORA_CORE_ADAPTER_FACTORY_H_
