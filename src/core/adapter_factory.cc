#include "core/adapter_factory.h"

#include <utility>

#include "common/rng.h"
#include "core/metalora_conv.h"
#include "core/metalora_linear.h"
#include "core/moe_lora.h"
#include "core/multi_lora.h"
#include "core/tn_adapter.h"
#include "nn/conv2d.h"
#include "nn/linear.h"

namespace metalora {
namespace core {

namespace {

Result<std::unique_ptr<Adapter>> BuildLinearAdapter(const AdapterSpec& spec) {
  const BaseLayerSpec& b = spec.base;
  Rng rng(b.init_seed);
  auto base = std::make_unique<nn::Linear>(b.in_features, b.out_features,
                                           b.bias, rng);
  switch (spec.options.kind) {
    case AdapterKind::kLora:
    case AdapterKind::kMetaLoraCp:
    case AdapterKind::kLotr:
    case AdapterKind::kMetaLotr:
    case AdapterKind::kTt:
    case AdapterKind::kMetaTt:
      return std::unique_ptr<Adapter>(
          std::make_unique<TnAdapter>(std::move(base), spec.options));
    case AdapterKind::kMultiLora:
      return std::unique_ptr<Adapter>(
          std::make_unique<MultiLoraLinear>(std::move(base), spec.options));
    case AdapterKind::kMoeLora:
      return std::unique_ptr<Adapter>(
          std::make_unique<MoeLoraLinear>(std::move(base), spec.options));
    case AdapterKind::kMetaLoraTr:
      return std::unique_ptr<Adapter>(
          std::make_unique<MetaLoraTrLinear>(std::move(base), spec.options));
    case AdapterKind::kNone:
      break;
  }
  return Status::InvalidArgument("no adapter to build for kind 'Original'");
}

Result<std::unique_ptr<Adapter>> BuildConvAdapter(const AdapterSpec& spec) {
  const BaseLayerSpec& b = spec.base;
  Rng rng(b.init_seed);
  auto base = std::make_unique<nn::Conv2d>(b.in_channels, b.out_channels,
                                           b.kernel, b.stride, b.padding,
                                           b.bias, rng);
  switch (spec.options.kind) {
    case AdapterKind::kLora:
    case AdapterKind::kMetaLoraCp:
    case AdapterKind::kLotr:
    case AdapterKind::kMetaLotr:
    case AdapterKind::kTt:
    case AdapterKind::kMetaTt:
      return std::unique_ptr<Adapter>(
          std::make_unique<TnAdapter>(std::move(base), spec.options));
    case AdapterKind::kMultiLora:
      return std::unique_ptr<Adapter>(
          std::make_unique<MultiLoraConv>(std::move(base), spec.options));
    case AdapterKind::kMoeLora:
      return std::unique_ptr<Adapter>(
          std::make_unique<MoeLoraConv>(std::move(base), spec.options));
    case AdapterKind::kMetaLoraTr:
      return std::unique_ptr<Adapter>(
          std::make_unique<MetaLoraTrConv>(std::move(base), spec.options));
    case AdapterKind::kNone:
      break;
  }
  return Status::InvalidArgument("no adapter to build for kind 'Original'");
}

}  // namespace

AdapterSpec LinearAdapterSpec(AdapterKind kind, int64_t in_features,
                              int64_t out_features, int64_t rank,
                              int64_t feature_dim, uint64_t seed) {
  AdapterSpec spec;
  spec.options.kind = kind;
  spec.options.rank = rank;
  spec.options.feature_dim = feature_dim;
  spec.options.seed = seed;
  spec.base.kind = BaseLayerKind::kLinear;
  spec.base.in_features = in_features;
  spec.base.out_features = out_features;
  spec.base.init_seed = seed ^ 0x9E3779B97F4A7C15ull;
  return spec;
}

AdapterSpec ConvAdapterSpec(AdapterKind kind, int64_t in_channels,
                            int64_t out_channels, int64_t kernel, int64_t rank,
                            int64_t feature_dim, uint64_t seed) {
  AdapterSpec spec;
  spec.options.kind = kind;
  spec.options.rank = rank;
  spec.options.feature_dim = feature_dim;
  spec.options.seed = seed;
  spec.base.kind = BaseLayerKind::kConv2d;
  spec.base.in_channels = in_channels;
  spec.base.out_channels = out_channels;
  spec.base.kernel = kernel;
  spec.base.init_seed = seed ^ 0x9E3779B97F4A7C15ull;
  return spec;
}

Status ValidateAdapterSpec(const AdapterSpec& spec) {
  Status s = ValidateAdapterOptions(spec.options);
  if (!s.ok()) return s;
  if (spec.options.kind == AdapterKind::kNone) {
    return Status::InvalidArgument(
        "options.kind: 'Original' (kNone) describes no adapter to build");
  }
  // 2^20 caps every base dimension: far above any layer this codebase
  // instantiates, low enough that a corrupt spec cannot drive allocation.
  constexpr int64_t kMaxDim = int64_t{1} << 20;
  switch (spec.base.kind) {
    case BaseLayerKind::kLinear:
      if (spec.base.in_features <= 0 || spec.base.in_features > kMaxDim) {
        return Status::InvalidArgument(
            "base.in_features: must be in (0, 2^20], got " +
            std::to_string(spec.base.in_features));
      }
      if (spec.base.out_features <= 0 || spec.base.out_features > kMaxDim) {
        return Status::InvalidArgument(
            "base.out_features: must be in (0, 2^20], got " +
            std::to_string(spec.base.out_features));
      }
      return Status::OK();
    case BaseLayerKind::kConv2d:
      if (spec.base.in_channels <= 0 || spec.base.in_channels > kMaxDim) {
        return Status::InvalidArgument(
            "base.in_channels: must be in (0, 2^20], got " +
            std::to_string(spec.base.in_channels));
      }
      if (spec.base.out_channels <= 0 || spec.base.out_channels > kMaxDim) {
        return Status::InvalidArgument(
            "base.out_channels: must be in (0, 2^20], got " +
            std::to_string(spec.base.out_channels));
      }
      if (spec.base.kernel <= 0 || spec.base.kernel > 31) {
        return Status::InvalidArgument(
            "base.kernel: must be in (0, 31], got " +
            std::to_string(spec.base.kernel));
      }
      if (spec.base.stride <= 0 || spec.base.stride > spec.base.kernel) {
        return Status::InvalidArgument(
            "base.stride: must be in (0, kernel], got " +
            std::to_string(spec.base.stride));
      }
      if (spec.base.padding < 0 || spec.base.padding > spec.base.kernel) {
        return Status::InvalidArgument(
            "base.padding: must be in [0, kernel], got " +
            std::to_string(spec.base.padding));
      }
      return Status::OK();
  }
  return Status::InvalidArgument(
      "base.kind: unknown base layer kind " +
      std::to_string(static_cast<int>(spec.base.kind)));
}

Result<std::unique_ptr<Adapter>> BuildAdapter(const AdapterSpec& spec) {
  Status s = ValidateAdapterSpec(spec);
  if (!s.ok()) return s;
  switch (spec.base.kind) {
    case BaseLayerKind::kLinear:
      return BuildLinearAdapter(spec);
    case BaseLayerKind::kConv2d:
      return BuildConvAdapter(spec);
  }
  return Status::InvalidArgument("unknown base layer kind");
}

}  // namespace core
}  // namespace metalora
