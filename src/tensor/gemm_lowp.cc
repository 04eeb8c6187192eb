// The bf16 shadow registry: frozen fp32 weights mapped to their prepacked
// bf16 forms. The bf16 tier itself is the one packed engine in gemm.cc
// (GemmPackedBf16, PackBf16Weight, GemmBf16Prepacked). See lowp.h for the
// contracts.
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "common/check.h"
#include "tensor/lowp.h"

namespace metalora {
namespace lowp {
namespace {

struct ShadowEntry {
  Tensor anchor;  // holds the weight's storage alive while registered
  int64_t refcount = 0;
  int64_t k = 0;
  int64_t m = 0;
  std::shared_ptr<const Bf16PackedWeight> bf16;
};

std::shared_mutex& ShadowMutex() {
  static std::shared_mutex mu;
  return mu;
}

std::unordered_map<const float*, ShadowEntry>& ShadowMap() {
  static auto* map = new std::unordered_map<const float*, ShadowEntry>();
  return *map;
}

}  // namespace

void ShadowHandle::Release() {
  if (key_ == nullptr) return;
  std::unique_lock<std::shared_mutex> lock(ShadowMutex());
  auto& map = ShadowMap();
  auto it = map.find(key_);
  if (it != map.end() && --it->second.refcount <= 0) map.erase(it);
  key_ = nullptr;
}

ShadowHandle RegisterWeightShadow(const Tensor& weight) {
  ML_CHECK(weight.defined() && weight.rank() == 2)
      << "shadow registration expects a rank-2 [out, in] weight";
  const int64_t m = weight.dim(0);  // output channels
  const int64_t k = weight.dim(1);  // reduction depth
  const float* key = weight.data();
  std::unique_lock<std::shared_mutex> lock(ShadowMutex());
  auto& entry = ShadowMap()[key];
  if (entry.refcount == 0) {
    // First registration: pack under the lock. Packing is O(k·m) —
    // publish/freeze-time work by design, never per request.
    entry.anchor = weight;
    entry.k = k;
    entry.m = m;
    entry.bf16 = std::make_shared<Bf16PackedWeight>(
        PackBf16Weight(weight.data(), /*trans_b=*/true, k, m));
  }
  ML_CHECK(entry.k == k && entry.m == m)
      << "shadow re-registration with a different shape";
  ++entry.refcount;
  return ShadowHandle(key);
}

std::shared_ptr<const Bf16PackedWeight> FindBf16Shadow(const float* data,
                                                       int64_t k, int64_t m) {
  std::shared_lock<std::shared_mutex> lock(ShadowMutex());
  const auto& map = ShadowMap();
  auto it = map.find(data);
  if (it == map.end() || it->second.k != k || it->second.m != m) return nullptr;
  return it->second.bf16;
}

int64_t ShadowCount() {
  std::shared_lock<std::shared_mutex> lock(ShadowMutex());
  return static_cast<int64_t>(ShadowMap().size());
}

}  // namespace lowp
}  // namespace metalora
