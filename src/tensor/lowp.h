// Low-precision kernel tier: the bf16 storage format, its prepacked weight
// form, and the shadow registry that serves it.
//
// Precision model (see DESIGN.md "Precision tiers & autocast"): bf16 is
// storage only. Operands are rounded to bfloat16 with round-to-nearest-even
// at pack time, widened back to fp32 on load, and accumulated in fp32.
// Numerics are a pure function of the rounded inputs, so GemmPackedBf16
// (dynamic packing), GemmBf16Prepacked (pack-once weights) and
// GemmReferenceBf16 are all bit-identical to each other in the same
// process.
//
// Why a prepacked form exists: converting on pack alone cannot beat fp32
// when a weight panel is read once — the pack itself still streams the
// fp32 source. The bandwidth win comes from packing a frozen weight ONCE
// (at adapter publish / freeze time) into its bf16 panel layout and
// re-reading only 2 bytes per element on every subsequent request: small
// activation batches against large frozen weights.
//
// The shadow registry maps a frozen fp32 weight (keyed by its storage
// pointer) to its prepacked bf16 form. Registration is refcounted RAII
// (ShadowHandle); entries hold the weight's storage alive so a key can
// never be recycled while registered. Lookups are shared_ptr copies, so a
// concurrent unregister can never free a pack mid-GEMM. The registry is
// for *frozen* tensors only: an in-place update to a registered weight
// makes its shadow stale — unregister first (hot-swap publishes new
// tensors, so the RCU serving path never hits this).
#ifndef METALORA_TENSOR_LOWP_H_
#define METALORA_TENSOR_LOWP_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace metalora {
namespace lowp {

/// Rounds an fp32 value to bfloat16 with round-to-nearest-even, the same
/// rounding hardware bf16 units use. NaN stays NaN (quieted).
inline uint16_t Bf16FromF32(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  if ((bits & 0x7fffffffu) > 0x7f800000u) {
    return static_cast<uint16_t>((bits >> 16) | 0x0040u);
  }
  const uint32_t rounding = 0x7fffu + ((bits >> 16) & 1u);
  return static_cast<uint16_t>((bits + rounding) >> 16);
}

/// Widens a bfloat16 value back to fp32 (exact: bf16 is a prefix of fp32).
inline float F32FromBf16(uint16_t value) {
  const uint32_t bits = static_cast<uint32_t>(value) << 16;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// fp32 -> bf16 -> fp32 round trip: the value a bf16 operand contributes.
inline float RoundToBf16(float value) { return F32FromBf16(Bf16FromF32(value)); }

/// A weight prepacked to bf16 in the engine's column-panel layout:
/// ceil(m/kGemmNR) panels, each k steps of kGemmNR contiguous values,
/// zero-padded past m. Always packs op(B) of the x·op(B) product, i.e.
/// the transpose is absorbed exactly like the engine's PackB.
struct Bf16PackedWeight {
  int64_t k = 0;  // reduction depth
  int64_t m = 0;  // output channels
  std::vector<uint16_t> panels;
};

/// Packs op(B) (stored [k,m], or [m,k] with trans_b) once. O(k·m); do this
/// at publish/freeze time, not per request.
Bf16PackedWeight PackBf16Weight(const float* b, bool trans_b, int64_t k,
                                int64_t m);

/// C[n,m] (+)= A · W over a prepacked weight. A is fp32 row-major [n,k],
/// rounded to bf16 at pack time inside the call. Bit-identical to
/// GemmReferenceBf16.
void GemmBf16Prepacked(const float* a, const Bf16PackedWeight& w, float* c,
                       int64_t n, bool accumulate);

// ---------------------------------------------------------------------------
// Shadow registry
// ---------------------------------------------------------------------------

/// RAII registration of one weight's shadow. Move-only; unregisters (one
/// refcount) on destruction. A default-constructed handle is empty.
class ShadowHandle {
 public:
  ShadowHandle() = default;
  explicit ShadowHandle(const float* key) : key_(key) {}
  ~ShadowHandle() { Release(); }
  ShadowHandle(ShadowHandle&& other) noexcept : key_(other.key_) {
    other.key_ = nullptr;
  }
  ShadowHandle& operator=(ShadowHandle&& other) noexcept {
    if (this != &other) {
      Release();
      key_ = other.key_;
      other.key_ = nullptr;
    }
    return *this;
  }
  ShadowHandle(const ShadowHandle&) = delete;
  ShadowHandle& operator=(const ShadowHandle&) = delete;

  bool valid() const { return key_ != nullptr; }

 private:
  void Release();
  const float* key_ = nullptr;
};

/// Packs `weight` (rank-2, [out, in], used as x·Wᵀ — the Linear layout)
/// into its bf16 shadow and registers it under weight.data(). Registering
/// the same storage again just bumps a refcount (sessions may share a
/// module); the pack is reused, not recomputed. The entry holds the
/// weight's storage alive until the last handle is released.
ShadowHandle RegisterWeightShadow(const Tensor& weight);

/// Looks up a shadow by storage pointer. The (k, m) pair must match what
/// was packed (guards against pointer reuse paranoia and wrong-layout
/// callers); mismatch returns null. Null means "no shadow" — callers fall
/// back to the dynamic path.
std::shared_ptr<const Bf16PackedWeight> FindBf16Shadow(const float* data,
                                                       int64_t k, int64_t m);

/// Number of distinct registered weights (tests / stats).
int64_t ShadowCount();

}  // namespace lowp
}  // namespace metalora

#endif  // METALORA_TENSOR_LOWP_H_
