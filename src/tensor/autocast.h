// Autocast policy: per-op-category precision selection for the no-grad
// (serving / eval) paths.
//
// The policy is data, not machinery: a small struct carried on
// autograd::RuntimeContext and copied into child contexts by the parallel
// runners. Op facades that have a low-precision kernel (GEMM, conv) ask the
// context which precision to run at; every other op category — reductions,
// normalization, elementwise epilogues — never consults the policy at all,
// which is how those stay pinned to fp32 structurally rather than by
// convention.
//
// Two invariants the rest of the system relies on:
//  - Default-off. A default-constructed policy resolves everything to fp32,
//    and the fp32 kernels are byte-for-byte the ones that existed before
//    this layer — the bit-identity contract on the fp32 path is untouched.
//  - No-grad only. Facades resolve through
//    RuntimeContext::PrecisionFor(), which returns fp32 whenever
//    gradients are being recorded, so training is always full precision
//    regardless of what a caller set on the context.
#ifndef METALORA_TENSOR_AUTOCAST_H_
#define METALORA_TENSOR_AUTOCAST_H_

#include <string>

namespace metalora {

/// Numeric tier an eligible op runs at. Values index the per-precision
/// dispatch counters on RuntimeContext; keep them dense from 0.
enum class OpPrecision : int {
  kFp32 = 0,  // fp32 storage, fp32 accumulation (bit-identical engine)
  kBf16 = 1,  // bf16 storage (RNE on pack), fp32 accumulation
};

/// The two tiers above, in index order: what loops over tiers walk.
inline constexpr OpPrecision kOpPrecisions[] = {OpPrecision::kFp32,
                                                OpPrecision::kBf16};

/// Width of the per-precision dispatch counters (RuntimeContext,
/// ServeStats::gemm_dispatch): one slot per tier plus slot 2, which always
/// reads 0. The end-to-end benchmark (bench/suite) exports slot 2 as
/// tensor.gemm.dispatch.int8; the slot can go when that metric does.
inline constexpr int kNumOpPrecisions = 3;

/// Stable lowercase name ("fp32" / "bf16") for logs and JSON.
const char* OpPrecisionName(OpPrecision precision);

/// Parses the names accepted by the bench `--precision=` flags. Returns
/// false (and leaves *out untouched) on anything else, "int8" included.
bool ParseOpPrecision(const std::string& text, OpPrecision* out);

/// Op categories that exist for precision resolution. Only kGemm and kConv
/// are eligible for low precision; the others are listed so call sites can
/// state their category explicitly and get the pinned-fp32 answer from the
/// same Resolve() path the eligible ops use.
enum class OpCategory : int {
  kGemm = 0,
  kConv = 1,
  kReduction = 2,
  kNormalization = 3,
};

struct AutocastPolicy {
  /// Master switch. When false, Resolve() is fp32 for every category no
  /// matter what the per-category fields say.
  bool enabled = false;
  /// Requested precision for matmul/linear/batched-matmul GEMMs.
  OpPrecision gemm = OpPrecision::kFp32;
  /// Requested precision for conv im2col GEMMs.
  OpPrecision conv = OpPrecision::kFp32;

  OpPrecision Resolve(OpCategory category) const {
    if (!enabled) return OpPrecision::kFp32;
    switch (category) {
      case OpCategory::kGemm:
        return gemm;
      case OpCategory::kConv:
        return conv;
      case OpCategory::kReduction:
      case OpCategory::kNormalization:
        return OpPrecision::kFp32;  // pinned: never eligible
    }
    return OpPrecision::kFp32;
  }

  /// Default-constructed == disabled; named for readability at call sites.
  static AutocastPolicy Disabled() { return AutocastPolicy{}; }

  /// The serving preset wired through AdapterServer worker contexts and the
  /// bench --precision flags: GEMMs and convs at `precision`, everything
  /// else fp32. Serving(kFp32) is the disabled policy, so
  /// `--precision=fp32` exercises the identical code path as no flag.
  static AutocastPolicy Serving(OpPrecision precision) {
    AutocastPolicy policy;
    if (precision == OpPrecision::kFp32) return policy;
    policy.enabled = true;
    policy.gemm = precision;
    policy.conv = precision;
    return policy;
  }
};

}  // namespace metalora

#endif  // METALORA_TENSOR_AUTOCAST_H_
