// The int8 prepacked serving path and the quantized-shadow registry. The
// bf16 tier is not here: it is the one packed engine in gemm.cc with bf16
// B panels (GemmPackedBf16, PackBf16Weight, GemmBf16Prepacked). See lowp.h
// for the contracts.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "tensor/gemm.h"
#include "tensor/gemm_detail.h"
#include "tensor/lowp.h"

#if METALORA_GEMM_AVX2_CLONES
#include <immintrin.h>
#endif

namespace metalora {

namespace {

// The int8 path's packing scratch, cache-line aligned like the engine's
// (gemm.cc): quantized activation panels and their per-row scales.
thread_local gemm_detail::AlignedBuffer<int8_t> tls_pack_a8;
thread_local std::vector<float> tls_row_scales;

}  // namespace

namespace lowp {

float MaxAbsScale(const float* base, int64_t count, int64_t stride) {
  float max_abs = 0.0f;
  for (int64_t p = 0; p < count; ++p) {
    const float v = std::fabs(base[p * stride]);
    if (v > max_abs) max_abs = v;
  }
  return max_abs / 127.0f;
}

Int8PackedWeight PackInt8Weight(const float* b, bool trans_b, int64_t k,
                                int64_t m) {
  ML_CHECK(k >= 0 && m >= 0);
  // int32 accumulator headroom: k * 127^2 must stay below 2^31.
  ML_CHECK(k <= (int64_t{1} << 17))
      << "int8 tier supports k up to 131072, got " << k;
  Int8PackedWeight w;
  w.k = k;
  w.m = m;
  const int64_t panels = (m + kGemmNR - 1) / kGemmNR;
  w.panels.assign(static_cast<size_t>(panels * k * kGemmNR), 0);
  w.scales.assign(static_cast<size_t>(m), 0.0f);
  for (int64_t j = 0; j < m; ++j) {
    // Output channel j of op(B): contiguous when trans_b ([m,k] rows),
    // strided otherwise.
    const float* chan = trans_b ? b + j * k : b + j;
    const int64_t stride = trans_b ? 1 : m;
    const float scale = MaxAbsScale(chan, k, stride);
    w.scales[static_cast<size_t>(j)] = scale;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    int8_t* panel = w.panels.data() + (j / kGemmNR) * k * kGemmNR;
    const int64_t jj = j % kGemmNR;
    for (int64_t p = 0; p < k; ++p) {
      panel[p * kGemmNR + jj] = QuantizeValue(chan[p * stride], inv);
    }
  }
  return w;
}

namespace {

// int8 micro-kernel over a kGemmMR × kGemmNR int32 accumulator tile. The
// portable version is a fixed-bound loop left to the compiler; the AVX2
// clone widens each 16-lane B step to two ymm of int32 and keeps the tile
// in 12 ymm accumulators. Integer accumulation is exact and
// order-independent, so packed-vs-reference bit-identity needs no
// back-end mirroring — correctness is layout-only. The fp32 dequantize
// epilogue stays outside the clone (GemmInt8PrepackedOn), so the clone's
// FMA target can never fuse it.
using MicroKernelInt8Fn = void (*)(const int8_t* ap, const int8_t* bp,
                                   int64_t kc, int32_t* acc);

void MicroKernelInt8Portable(const int8_t* ap, const int8_t* bp, int64_t kc,
                             int32_t* acc) {
  for (int64_t p = 0; p < kc; ++p) {
    const int8_t* av = ap + p * kGemmMR;
    const int8_t* bv = bp + p * kGemmNR;
    for (int64_t r = 0; r < kGemmMR; ++r) {
      const int32_t ar = av[r];
      int32_t* arow = acc + r * kGemmNR;
      for (int64_t j = 0; j < kGemmNR; ++j) {
        arow[j] += ar * static_cast<int32_t>(bv[j]);
      }
    }
  }
}

#if METALORA_GEMM_AVX2_CLONES
METALORA_AVX2_FMA_TARGET void MicroKernelInt8Avx2(const int8_t* ap,
                                                  const int8_t* bp,
                                                  int64_t kc, int32_t* acc) {
  __m256i tile[kGemmMR][2];
  for (int64_t r = 0; r < kGemmMR; ++r) {
    tile[r][0] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc + r * kGemmNR));
    tile[r][1] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc + r * kGemmNR + 8));
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m128i b8 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp + p * kGemmNR));
    const __m256i b0 = _mm256_cvtepi8_epi32(b8);
    const __m256i b1 = _mm256_cvtepi8_epi32(_mm_srli_si128(b8, 8));
    const int8_t* av = ap + p * kGemmMR;
    for (int64_t r = 0; r < kGemmMR; ++r) {
      const __m256i ar = _mm256_set1_epi32(av[r]);
      tile[r][0] = _mm256_add_epi32(tile[r][0], _mm256_mullo_epi32(ar, b0));
      tile[r][1] = _mm256_add_epi32(tile[r][1], _mm256_mullo_epi32(ar, b1));
    }
  }
  for (int64_t r = 0; r < kGemmMR; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kGemmNR),
                        tile[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kGemmNR + 8),
                        tile[r][1]);
  }
}
#endif

// The integer tiles of an int8 prepacked GEMM over quantized, packed
// activation panels `qa`, on one ISA's kernel, each followed by the
// portable dequantize-on-store epilogue.
template <MicroKernelInt8Fn kKernel>
void GemmInt8PrepackedOn(const int8_t* qa, const float* a_scales,
                         const Int8PackedWeight& w, float* c, int64_t n,
                         bool accumulate) {
  const int64_t k = w.k;
  const int64_t m = w.m;
  const int8_t* wpanels = w.panels.data();
  const float* scales_b = w.scales.data();
  const int64_t a_panels = (n + kGemmMR - 1) / kGemmMR;
  int32_t acc[kGemmMR * kGemmNR];
  for (int64_t q = 0; q < a_panels; ++q) {
    const int64_t row0 = q * kGemmMR;
    const int64_t mr = std::min(kGemmMR, n - row0);
    const int8_t* apanel = qa + q * k * kGemmMR;
    for (int64_t jr = 0; jr < m; jr += kGemmNR) {
      const int64_t nr = std::min(kGemmNR, m - jr);
      const int8_t* bpanel = wpanels + (jr / kGemmNR) * k * kGemmNR;
      std::memset(acc, 0, sizeof(acc));
      kKernel(apanel, bpanel, k, acc);
      for (int64_t r = 0; r < mr; ++r) {
        const float sa = a_scales[row0 + r];
        float* crow = c + (row0 + r) * m + jr;
        for (int64_t j = 0; j < nr; ++j) {
          const float v = static_cast<float>(acc[r * kGemmNR + j]) *
                          (sa * scales_b[jr + j]);
          crow[j] = accumulate ? crow[j] + v : v;
        }
      }
    }
  }
}

}  // namespace

void GemmInt8Prepacked(const float* a, const Int8PackedWeight& w, float* c,
                       int64_t n, bool accumulate) {
  const int64_t k = w.k;
  const int64_t m = w.m;
  ML_DCHECK(n >= 0);
  if (n == 0 || m == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(c, c + n * m, 0.0f);
    return;
  }
  // Quantize + pack the activation rows once per call: per-row symmetric
  // scales, same MR-panel layout as the fp32 engine's PackA.
  const int64_t a_panels = (n + kGemmMR - 1) / kGemmMR;
  tls_pack_a8.Reserve(a_panels * k * kGemmMR);
  tls_row_scales.resize(static_cast<size_t>(n));
  int8_t* qa = tls_pack_a8.data();
  float* a_scales = tls_row_scales.data();
  for (int64_t q = 0; q < a_panels; ++q) {
    const int64_t row0 = q * kGemmMR;
    const int64_t rows = std::min(kGemmMR, n - row0);
    int8_t* dst = qa + q * k * kGemmMR;
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = a + (row0 + r) * k;
      const float scale = MaxAbsScale(row, k, 1);
      a_scales[row0 + r] = scale;
      const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        dst[p * kGemmMR + r] = QuantizeValue(row[p], inv);
      }
    }
    for (int64_t r = rows; r < kGemmMR; ++r) {
      for (int64_t p = 0; p < k; ++p) dst[p * kGemmMR + r] = 0;
    }
  }
#if METALORA_GEMM_AVX2_CLONES
  if (gemm_detail::FusedMulAdd()) {
    GemmInt8PrepackedOn<MicroKernelInt8Avx2>(qa, a_scales, w, c, n,
                                             accumulate);
    return;
  }
#endif
  GemmInt8PrepackedOn<MicroKernelInt8Portable>(qa, a_scales, w, c, n,
                                               accumulate);
}

void GemmReferenceInt8(const float* a, const float* b, bool trans_b, float* c,
                       int64_t n, int64_t k, int64_t m, bool accumulate) {
  // Quantization-model oracle: identical quantized operands (same helper
  // calls as the pack paths), exact integer sums, identical dequantize
  // expression — so it matches GemmInt8Prepacked bit-for-bit.
  std::vector<int8_t> qa(static_cast<size_t>(std::max<int64_t>(k, 1)));
  std::vector<int8_t> qb(static_cast<size_t>(std::max<int64_t>(k, 1) *
                                             std::max<int64_t>(m, 1)));
  std::vector<float> sb(static_cast<size_t>(m));
  for (int64_t j = 0; j < m; ++j) {
    const float* chan = trans_b ? b + j * k : b + j;
    const int64_t stride = trans_b ? 1 : m;
    const float scale = MaxAbsScale(chan, k, stride);
    sb[static_cast<size_t>(j)] = scale;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      qb[static_cast<size_t>(j * k + p)] = QuantizeValue(chan[p * stride], inv);
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    const float* row = a + i * k;
    const float sa = MaxAbsScale(row, k, 1);
    const float inv = sa > 0.0f ? 1.0f / sa : 0.0f;
    for (int64_t p = 0; p < k; ++p) qa[static_cast<size_t>(p)] = QuantizeValue(row[p], inv);
    for (int64_t j = 0; j < m; ++j) {
      int64_t acc = 0;
      const int8_t* bq = qb.data() + j * k;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<int64_t>(qa[static_cast<size_t>(p)]) * bq[p];
      }
      const float v = static_cast<float>(acc) * (sa * sb[static_cast<size_t>(j)]);
      c[i * m + j] = accumulate ? c[i * m + j] + v : v;
    }
  }
}

// ---------------------------------------------------------------------------
// Quantized-shadow registry
// ---------------------------------------------------------------------------

namespace {

struct ShadowEntry {
  Tensor anchor;  // holds the weight's storage alive while registered
  int64_t refcount = 0;
  int64_t k = 0;
  int64_t m = 0;
  std::shared_ptr<const Bf16PackedWeight> bf16;
  std::shared_ptr<const Int8PackedWeight> int8;
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
    // First registration: pack both forms under the lock. Packing is
    // O(k·m) — publish/freeze-time work by design, never per request.
    entry.anchor = weight;
    entry.k = k;
    entry.m = m;
    entry.bf16 = std::make_shared<Bf16PackedWeight>(
        PackBf16Weight(weight.data(), /*trans_b=*/true, k, m));
    entry.int8 = std::make_shared<Int8PackedWeight>(
        PackInt8Weight(weight.data(), /*trans_b=*/true, k, m));
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

std::shared_ptr<const Int8PackedWeight> FindInt8Shadow(const float* data,
                                                       int64_t k, int64_t m) {
  std::shared_lock<std::shared_mutex> lock(ShadowMutex());
  const auto& map = ShadowMap();
  auto it = map.find(data);
  if (it == map.end() || it->second.k != k || it->second.m != m) return nullptr;
  return it->second.int8;
}

int64_t ShadowCount() {
  std::shared_lock<std::shared_mutex> lock(ShadowMutex());
  return static_cast<int64_t>(ShadowMap().size());
}

}  // namespace lowp
}  // namespace metalora
