#include "tensor/lowp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/runtime_context.h"
#include "common/rng.h"
#include "tensor/autocast.h"
#include "tensor/gemm.h"
#include "tensor/gemm_detail.h"
#include "tensor/random_init.h"
#include "tensor/tensor.h"

namespace metalora {
namespace {

using lowp::Bf16FromF32;
using lowp::F32FromBf16;
using lowp::QuantizeValue;
using lowp::RoundToBf16;

// ---------------------------------------------------------------------------
// Conversion helpers
// ---------------------------------------------------------------------------

TEST(Bf16ConversionTest, ExactValuesRoundTrip) {
  // Values with <= 8 significand bits are exactly representable in bf16.
  for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -3.5f, 128.0f,
                  0.0078125f, 1.984375f}) {
    EXPECT_EQ(RoundToBf16(v), v) << v;
  }
}

TEST(Bf16ConversionTest, RoundsToNearestEven) {
  // The bf16 ulp at 1.0 is 2^-7. 1.0 + 2^-8 sits exactly halfway between
  // neighbors 1.0 (even significand) and 1.0078125 (odd); ties go to
  // even, so it rounds DOWN.
  EXPECT_EQ(RoundToBf16(1.0f + 0.00390625f), 1.0f);
  // 1.0078125 + 2^-8 is halfway with an odd low significand bit: rounds
  // UP to the even neighbor 1.015625.
  EXPECT_EQ(RoundToBf16(1.0078125f + 0.00390625f), 1.015625f);
  // Just above / below the halfway point rounds to the nearer neighbor.
  EXPECT_EQ(RoundToBf16(1.004f), 1.0078125f);
  EXPECT_EQ(RoundToBf16(1.0038f), 1.0f);
}

TEST(Bf16ConversionTest, WidenIsExactPrefixOfF32) {
  // Every bf16 pattern widens to the fp32 value whose top 16 bits it is.
  for (uint32_t hi : {0x3f80u, 0xbf80u, 0x4049u, 0x0001u, 0x7f80u, 0xff80u}) {
    const uint32_t bits = hi << 16;
    float expected;
    std::memcpy(&expected, &bits, sizeof(expected));
    const float widened = F32FromBf16(static_cast<uint16_t>(hi));
    if (std::isinf(expected)) {
      EXPECT_EQ(widened, expected);
    } else {
      EXPECT_EQ(widened, expected);
    }
  }
}

TEST(Bf16ConversionTest, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(RoundToBf16(inf), inf);
  EXPECT_EQ(RoundToBf16(-inf), -inf);
  EXPECT_TRUE(std::isnan(RoundToBf16(std::nanf(""))));
  // Large finite values below the bf16 max stay finite; the fp32 max
  // rounds up to infinity (its exponent is at the top of the range).
  EXPECT_TRUE(std::isinf(RoundToBf16(std::numeric_limits<float>::max())));
  // 3.0e38 = 1.7633... * 2^127 -> significand rounds to 226/128, i.e.
  // bf16 pattern 0x7f62.
  EXPECT_EQ(RoundToBf16(3.0e38f), F32FromBf16(0x7f62));
  EXPECT_FALSE(std::isinf(RoundToBf16(3.0e38f)));
}

TEST(Int8QuantizeTest, MaxAbsScaleAndClamp) {
  const float chan[] = {0.5f, -2.54f, 1.0f, 0.0f};
  const float scale = lowp::MaxAbsScale(chan, 4, 1);
  EXPECT_FLOAT_EQ(scale, 2.54f / 127.0f);  // maxabs / 127 = 0.02
  const float inv = 1.0f / scale;
  EXPECT_EQ(QuantizeValue(-2.54f, inv), -127);
  EXPECT_EQ(QuantizeValue(2.54f, inv), 127);
  EXPECT_EQ(QuantizeValue(1.0f, inv), 50);
  EXPECT_EQ(QuantizeValue(0.0f, inv), 0);
  // Values past the scale clamp instead of wrapping.
  EXPECT_EQ(QuantizeValue(100.0f, inv), 127);
  EXPECT_EQ(QuantizeValue(-100.0f, inv), -127);
}

TEST(Int8QuantizeTest, ZeroChannelQuantizesToExactZero) {
  const float chan[] = {0.0f, 0.0f, 0.0f};
  const float scale = lowp::MaxAbsScale(chan, 3, 1);
  EXPECT_EQ(scale, 0.0f);
  EXPECT_EQ(QuantizeValue(0.0f, 0.0f), 0);
}

TEST(Int8QuantizeTest, StridedChannelWalk) {
  // Column 1 of a row-major [3, 2] matrix: stride 2 from base + 1.
  const float b[] = {1.0f, -8.0f, 2.0f, 4.0f, 3.0f, 0.5f};
  EXPECT_FLOAT_EQ(lowp::MaxAbsScale(b + 1, 3, 2), 8.0f / 127.0f);
}

// ---------------------------------------------------------------------------
// Packed layouts
// ---------------------------------------------------------------------------

TEST(PackWeightTest, Bf16PanelLayoutAndPadding) {
  // [m=3, k=2] weight used as x·Wᵀ (trans_b): panel holds k steps of NR
  // contiguous channel values, channels past m zero-padded.
  const float w[] = {1.0f, 2.0f,   // channel 0
                     3.0f, 4.0f,   // channel 1
                     5.0f, 6.0f};  // channel 2
  lowp::Bf16PackedWeight packed =
      lowp::PackBf16Weight(w, /*trans_b=*/true, /*k=*/2, /*m=*/3);
  EXPECT_EQ(packed.k, 2);
  EXPECT_EQ(packed.m, 3);
  ASSERT_EQ(packed.panels.size(), static_cast<size_t>(2 * kGemmNR));
  // p=0 holds element 0 of every channel; p=1 holds element 1.
  EXPECT_EQ(F32FromBf16(packed.panels[0]), 1.0f);
  EXPECT_EQ(F32FromBf16(packed.panels[1]), 3.0f);
  EXPECT_EQ(F32FromBf16(packed.panels[2]), 5.0f);
  EXPECT_EQ(packed.panels[3], 0);  // padding channel
  EXPECT_EQ(F32FromBf16(packed.panels[kGemmNR + 0]), 2.0f);
  EXPECT_EQ(F32FromBf16(packed.panels[kGemmNR + 1]), 4.0f);
  EXPECT_EQ(F32FromBf16(packed.panels[kGemmNR + 2]), 6.0f);
}

TEST(PackWeightTest, Int8PerChannelScales) {
  const float w[] = {1.27f, -1.27f,  // channel 0: scale 0.01
                     0.0f,  0.0f,    // channel 1: all-zero, scale 0
                     12.7f, 6.35f};  // channel 2: scale 0.1
  lowp::Int8PackedWeight packed =
      lowp::PackInt8Weight(w, /*trans_b=*/true, /*k=*/2, /*m=*/3);
  ASSERT_EQ(packed.scales.size(), 3u);
  EXPECT_FLOAT_EQ(packed.scales[0], 0.01f);
  EXPECT_EQ(packed.scales[1], 0.0f);
  EXPECT_FLOAT_EQ(packed.scales[2], 0.1f);
  EXPECT_EQ(packed.panels[0], 127);   // channel 0, p=0
  EXPECT_EQ(packed.panels[1], 0);     // channel 1, p=0
  EXPECT_EQ(packed.panels[2], 127);   // channel 2, p=0
  EXPECT_EQ(packed.panels[kGemmNR + 0], -127);
  EXPECT_EQ(packed.panels[kGemmNR + 2], 64);  // 6.35/0.1 = 63.5 -> even 64
}

// ---------------------------------------------------------------------------
// GEMM bit-identity: dynamic == prepacked == reference at each tier
// ---------------------------------------------------------------------------

void ExpectBitIdentical(const std::vector<float>& ref,
                        const std::vector<float>& got,
                        const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i], got[i]) << what << " diverges at flat index " << i;
  }
}

void CheckBf16Shape(int64_t n, int64_t k, int64_t m, bool trans_a,
                    bool trans_b, bool accumulate) {
  Rng rng(static_cast<uint64_t>(n * 7919 + k * 131 + m * 17 +
                                (trans_a ? 2 : 0) + (trans_b ? 1 : 0)));
  Tensor a = RandomNormal(trans_a ? Shape{k, n} : Shape{n, k}, rng);
  Tensor b = RandomNormal(trans_b ? Shape{m, k} : Shape{k, m}, rng);
  Tensor seed = RandomNormal(Shape{n, m}, rng);
  Tensor c_ref = seed.Clone();
  Tensor c_packed = seed.Clone();
  GemmReferenceBf16(a.data(), trans_a, b.data(), trans_b, c_ref.data(), n, k,
                    m, accumulate);
  GemmPackedBf16(a.data(), trans_a, b.data(), trans_b, c_packed.data(), n, k,
                 m, accumulate);
  const std::string what = "bf16 n=" + std::to_string(n) + " k=" +
                           std::to_string(k) + " m=" + std::to_string(m) +
                           (trans_a ? " transA" : "") +
                           (trans_b ? " transB" : "") +
                           (accumulate ? " accumulate" : "");
  ExpectBitIdentical(c_ref.ToVector(), c_packed.ToVector(), what);

  // The prepacked form must produce the same bits as dynamic packing (only
  // the x·Wᵀ layout has a prepacked form, and A must be untransposed).
  if (!trans_a) {
    lowp::Bf16PackedWeight w = lowp::PackBf16Weight(b.data(), trans_b, k, m);
    Tensor c_pre = seed.Clone();
    lowp::GemmBf16Prepacked(a.data(), w, c_pre.data(), n, accumulate);
    ExpectBitIdentical(c_ref.ToVector(), c_pre.ToVector(), what + " prepacked");
  }
}

// Odd extents straddle every tail path of the bf16 engine, mirroring the
// fp32 suite: sub-MR row panels, sub-NR column panels, single elements.
constexpr int64_t kOddExtents[] = {1, 3, 7, 17, 63, 65};

TEST(GemmBf16Test, OddShapesAllLayoutsBitIdentical) {
  for (int64_t n : kOddExtents) {
    for (int64_t k : kOddExtents) {
      for (int64_t m : kOddExtents) {
        for (int layout = 0; layout < 4; ++layout) {
          CheckBf16Shape(n, k, m, (layout & 2) != 0, (layout & 1) != 0,
                         /*accumulate=*/false);
        }
      }
    }
  }
}

TEST(GemmBf16Test, AccumulateBitIdentical) {
  for (int64_t n : {1, 7, 65}) {
    for (int64_t m : {1, 17, 63}) {
      CheckBf16Shape(n, /*k=*/17, m, false, true, /*accumulate=*/true);
    }
  }
}

TEST(GemmBf16Test, BlockedShapesCrossPanelBoundaries) {
  // Extents spanning multiple KC/MC/NR blocks: the fp32 partial-sum
  // store/reload between k panels must be exact at any kc.
  CheckBf16Shape(97, 300, 33, false, false, false);
  CheckBf16Shape(13, 513, 160, false, true, false);
  CheckBf16Shape(97, 257, 33, false, false, true);
  // Three kGemmMC row blocks over one full-depth prepacked k block.
  CheckBf16Shape(200, 300, 33, false, true, false);
  // m past kGemmNC: the dynamic engine's second column block.
  CheckBf16Shape(7, 300, kGemmNC + 19, false, true, false);
}

// A one-column prepacked weight runs the bf16 GEMV route over its column,
// gathered out of the padded panel, instead of the engine: byte-equal to
// the reference (zeros of both signs included), with no engine run.
TEST(GemmBf16Test, PrepackedOneColumnRunsTheGemvRoute) {
  for (int64_t n : {1, 6, 64}) {
    for (int64_t k : {1, 17, 300}) {
      for (bool accumulate : {false, true}) {
        Rng rng(static_cast<uint64_t>(n * 31 + k));
        Tensor a = RandomNormal(Shape{n, k}, rng);
        Tensor b = RandomNormal(Shape{k, 1}, rng);
        for (int64_t i = 0; i < a.numel(); i += 5) a.flat(i) = -0.0f;
        for (int64_t i = 1; i < b.numel(); i += 4) b.flat(i) = -0.0f;
        Tensor c_ref = RandomNormal(Shape{n, 1}, rng);
        Tensor c_pre = c_ref.Clone();
        GemmReferenceBf16(a.data(), false, b.data(), false, c_ref.data(), n, k,
                          1, accumulate);
        const lowp::Bf16PackedWeight w =
            lowp::PackBf16Weight(b.data(), false, k, 1);
        const int64_t before = PackedEngineRuns();
        lowp::GemmBf16Prepacked(a.data(), w, c_pre.data(), n, accumulate);
        EXPECT_EQ(PackedEngineRuns(), before);
        EXPECT_EQ(std::memcmp(c_ref.data(), c_pre.data(),
                              static_cast<size_t>(n) * sizeof(float)),
                  0)
            << "n=" << n << " k=" << k << " accumulate=" << accumulate;
      }
    }
  }
}

TEST(GemmBf16Test, GemvPathMatchesReference) {
  // m == 1 routes through the GEMV fast path.
  CheckBf16Shape(65, 300, 1, false, false, false);
  CheckBf16Shape(65, 300, 1, false, false, true);
}

TEST(GemmBf16Test, KZeroZeroFillsOrPreserves) {
  Tensor c = Tensor::Ones(Shape{3, 5});
  GemmPackedBf16(nullptr, false, nullptr, false, c.data(), 3, 0, 5,
                 /*accumulate=*/true);
  EXPECT_EQ(c.ToVector(), Tensor::Ones(Shape{3, 5}).ToVector());
  GemmPackedBf16(nullptr, false, nullptr, false, c.data(), 3, 0, 5,
                 /*accumulate=*/false);
  EXPECT_EQ(c.ToVector(), std::vector<float>(15, 0.0f));
}

TEST(GemmBf16Test, DiffersFromFp32OnInexactInputs) {
  // Sanity that the tier actually rounds: a value with > 8 significand
  // bits must perturb the product vs the fp32 engine.
  const float a = 1.00390625f;  // 1 + 2^-8: not representable in bf16
  const float b = 1.0f;
  float c_fp32 = 0.0f, c_bf16 = 0.0f;
  GemmReference(&a, false, &b, false, &c_fp32, 1, 1, 1, false);
  GemmReferenceBf16(&a, false, &b, false, &c_bf16, 1, 1, 1, false);
  EXPECT_NE(c_fp32, c_bf16);
  EXPECT_EQ(c_bf16, RoundToBf16(a));
}

void CheckInt8Shape(int64_t n, int64_t k, int64_t m, bool trans_b) {
  Rng rng(static_cast<uint64_t>(n * 104729 + k * 43 + m * 11 +
                                (trans_b ? 1 : 0)));
  Tensor a = RandomNormal(Shape{n, k}, rng);
  Tensor b = RandomNormal(trans_b ? Shape{m, k} : Shape{k, m}, rng);
  Tensor seed = RandomNormal(Shape{n, m}, rng);
  Tensor c_ref = seed.Clone();
  Tensor c_pre = seed.Clone();
  lowp::GemmReferenceInt8(a.data(), b.data(), trans_b, c_ref.data(), n, k, m,
                          /*accumulate=*/true);
  lowp::Int8PackedWeight w = lowp::PackInt8Weight(b.data(), trans_b, k, m);
  lowp::GemmInt8Prepacked(a.data(), w, c_pre.data(), n, /*accumulate=*/true);
  ExpectBitIdentical(c_ref.ToVector(), c_pre.ToVector(),
                     "int8 n=" + std::to_string(n) + " k=" +
                         std::to_string(k) + " m=" + std::to_string(m) +
                         (trans_b ? " transB" : ""));
}

TEST(GemmInt8Test, OddShapesBitIdenticalToReference) {
  for (int64_t n : kOddExtents) {
    for (int64_t m : kOddExtents) {
      CheckInt8Shape(n, /*k=*/33, m, /*trans_b=*/true);
      CheckInt8Shape(n, /*k=*/33, m, /*trans_b=*/false);
    }
  }
  CheckInt8Shape(7, 513, 65, /*trans_b=*/true);
}

TEST(GemmInt8Test, QuantizationErrorIsBounded) {
  // Not a bit contract — a sanity envelope that per-channel dequantized
  // products land near the fp32 truth (gross scale bugs explode this).
  Rng rng(77);
  const int64_t n = 5, k = 64, m = 32;
  Tensor a = RandomNormal(Shape{n, k}, rng);
  Tensor b = RandomNormal(Shape{m, k}, rng);
  Tensor c_fp32{Shape{n, m}};
  Tensor c_int8{Shape{n, m}};
  GemmReference(a.data(), false, b.data(), true, c_fp32.data(), n, k, m,
                false);
  lowp::GemmReferenceInt8(a.data(), b.data(), true, c_int8.data(), n, k, m,
                          false);
  float max_abs = 0.0f, max_diff = 0.0f;
  for (int64_t i = 0; i < n * m; ++i) {
    max_abs = std::max(max_abs, std::fabs(c_fp32.data()[i]));
    max_diff = std::max(max_diff,
                        std::fabs(c_fp32.data()[i] - c_int8.data()[i]));
  }
  EXPECT_LT(max_diff, 0.1f * max_abs);
}

// ---------------------------------------------------------------------------
// Shadow registry
// ---------------------------------------------------------------------------

TEST(ShadowRegistryTest, RegisterLookupRelease) {
  Rng rng(31);
  Tensor w = RandomNormal(Shape{24, 16}, rng);
  const int64_t before = lowp::ShadowCount();
  {
    lowp::ShadowHandle handle = lowp::RegisterWeightShadow(w);
    EXPECT_TRUE(handle.valid());
    EXPECT_EQ(lowp::ShadowCount(), before + 1);
    auto bf16 = lowp::FindBf16Shadow(w.data(), /*k=*/16, /*m=*/24);
    auto int8 = lowp::FindInt8Shadow(w.data(), /*k=*/16, /*m=*/24);
    ASSERT_NE(bf16, nullptr);
    ASSERT_NE(int8, nullptr);
    EXPECT_EQ(bf16->k, 16);
    EXPECT_EQ(bf16->m, 24);
    EXPECT_EQ(int8->scales.size(), 24u);
    // Shape mismatch is a miss, not a wrong answer.
    EXPECT_EQ(lowp::FindBf16Shadow(w.data(), 24, 16), nullptr);
    EXPECT_EQ(lowp::FindInt8Shadow(w.data(), 16, 23), nullptr);
  }
  EXPECT_EQ(lowp::ShadowCount(), before);
  EXPECT_EQ(lowp::FindBf16Shadow(w.data(), 16, 24), nullptr);
}

TEST(ShadowRegistryTest, RefcountSharesOnePack) {
  Rng rng(32);
  Tensor w = RandomNormal(Shape{8, 8}, rng);
  const int64_t before = lowp::ShadowCount();
  lowp::ShadowHandle h1 = lowp::RegisterWeightShadow(w);
  lowp::ShadowHandle h2 = lowp::RegisterWeightShadow(w);
  EXPECT_EQ(lowp::ShadowCount(), before + 1);  // one entry, refcount 2
  auto first = lowp::FindBf16Shadow(w.data(), 8, 8);
  h1 = lowp::ShadowHandle();  // release one
  EXPECT_EQ(lowp::ShadowCount(), before + 1);
  EXPECT_EQ(lowp::FindBf16Shadow(w.data(), 8, 8), first);  // same pack
  h2 = lowp::ShadowHandle();
  EXPECT_EQ(lowp::ShadowCount(), before);
  // The lookup copy taken before release stays alive (shared_ptr).
  EXPECT_EQ(first->k, 8);
}

TEST(ShadowRegistryTest, LookupSurvivesConcurrentRelease) {
  // A shared_ptr obtained from Find*Shadow must outlive unregistration —
  // the serving path may be mid-GEMM on it.
  Rng rng(33);
  Tensor w = RandomNormal(Shape{12, 6}, rng);
  std::shared_ptr<const lowp::Int8PackedWeight> pack;
  {
    lowp::ShadowHandle handle = lowp::RegisterWeightShadow(w);
    pack = lowp::FindInt8Shadow(w.data(), 6, 12);
    ASSERT_NE(pack, nullptr);
  }
  EXPECT_EQ(pack->m, 12);
  EXPECT_EQ(pack->scales.size(), 12u);
}

TEST(ShadowRegistryTest, MoveTransfersOwnership) {
  Rng rng(34);
  Tensor w = RandomNormal(Shape{4, 4}, rng);
  const int64_t before = lowp::ShadowCount();
  lowp::ShadowHandle a = lowp::RegisterWeightShadow(w);
  lowp::ShadowHandle b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): contract
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(lowp::ShadowCount(), before + 1);
  b = lowp::ShadowHandle();
  EXPECT_EQ(lowp::ShadowCount(), before);
}

// ---------------------------------------------------------------------------
// Packing scratch alignment
// ---------------------------------------------------------------------------

TEST(AlignedBufferTest, SixtyFourByteAlignment) {
  gemm_detail::AlignedBuffer<uint16_t> b16;
  gemm_detail::AlignedBuffer<float> bf;
  gemm_detail::AlignedBuffer<int8_t> b8;
  b16.Reserve(37);  // odd sizes must still align (and round up the bytes)
  bf.Reserve(129);
  b8.Reserve(1);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b16.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(bf.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b8.data()) % 64, 0u);
  // Growth re-aligns.
  bf.Reserve(100001);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(bf.data()) % 64, 0u);
}

// ---------------------------------------------------------------------------
// Autocast policy + runtime-context resolution
// ---------------------------------------------------------------------------

TEST(AutocastPolicyTest, DefaultIsDisabledEverywhereFp32) {
  AutocastPolicy policy;
  EXPECT_FALSE(policy.enabled);
  for (OpCategory cat : {OpCategory::kGemm, OpCategory::kConv,
                         OpCategory::kReduction, OpCategory::kNormalization}) {
    EXPECT_EQ(policy.Resolve(cat), OpPrecision::kFp32);
  }
  // Per-category requests are inert while the master switch is off.
  policy.gemm = OpPrecision::kInt8;
  EXPECT_EQ(policy.Resolve(OpCategory::kGemm), OpPrecision::kFp32);
}

TEST(AutocastPolicyTest, ReductionsAndNormalizationStayPinned) {
  AutocastPolicy policy;
  policy.enabled = true;
  policy.gemm = OpPrecision::kInt8;
  policy.conv = OpPrecision::kBf16;
  EXPECT_EQ(policy.Resolve(OpCategory::kGemm), OpPrecision::kInt8);
  EXPECT_EQ(policy.Resolve(OpCategory::kConv), OpPrecision::kBf16);
  EXPECT_EQ(policy.Resolve(OpCategory::kReduction), OpPrecision::kFp32);
  EXPECT_EQ(policy.Resolve(OpCategory::kNormalization), OpPrecision::kFp32);
}

TEST(AutocastPolicyTest, ConvCapsInt8AtBf16) {
  AutocastPolicy policy;
  policy.enabled = true;
  policy.conv = OpPrecision::kInt8;
  EXPECT_EQ(policy.Resolve(OpCategory::kConv), OpPrecision::kBf16);
}

TEST(AutocastPolicyTest, ServingPreset) {
  // Serving(fp32) is exactly the disabled policy.
  const AutocastPolicy fp32 = AutocastPolicy::Serving(OpPrecision::kFp32);
  EXPECT_FALSE(fp32.enabled);
  const AutocastPolicy bf16 = AutocastPolicy::Serving(OpPrecision::kBf16);
  EXPECT_TRUE(bf16.enabled);
  EXPECT_EQ(bf16.Resolve(OpCategory::kGemm), OpPrecision::kBf16);
  EXPECT_EQ(bf16.Resolve(OpCategory::kConv), OpPrecision::kBf16);
  const AutocastPolicy int8 = AutocastPolicy::Serving(OpPrecision::kInt8);
  EXPECT_EQ(int8.Resolve(OpCategory::kGemm), OpPrecision::kInt8);
  EXPECT_EQ(int8.Resolve(OpCategory::kConv), OpPrecision::kBf16);
}

TEST(AutocastPolicyTest, ParseAndName) {
  OpPrecision p = OpPrecision::kFp32;
  EXPECT_TRUE(ParseOpPrecision("bf16", &p));
  EXPECT_EQ(p, OpPrecision::kBf16);
  EXPECT_TRUE(ParseOpPrecision("int8", &p));
  EXPECT_EQ(p, OpPrecision::kInt8);
  EXPECT_TRUE(ParseOpPrecision("fp32", &p));
  EXPECT_EQ(p, OpPrecision::kFp32);
  p = OpPrecision::kBf16;
  EXPECT_FALSE(ParseOpPrecision("fp16", &p));
  EXPECT_EQ(p, OpPrecision::kBf16);  // untouched on failure
  EXPECT_STREQ(OpPrecisionName(OpPrecision::kFp32), "fp32");
  EXPECT_STREQ(OpPrecisionName(OpPrecision::kBf16), "bf16");
  EXPECT_STREQ(OpPrecisionName(OpPrecision::kInt8), "int8");
}

TEST(RuntimeContextAutocastTest, GradEnabledForcesFp32) {
  autograd::RuntimeContext& ctx = autograd::RuntimeContext::Current();
  const AutocastPolicy saved = ctx.autocast();
  const bool saved_grad = ctx.grad_enabled();
  ctx.set_autocast(AutocastPolicy::Serving(OpPrecision::kBf16));
  ctx.set_grad_enabled(true);
  EXPECT_EQ(ctx.PrecisionFor(OpCategory::kGemm), OpPrecision::kFp32);
  ctx.set_grad_enabled(false);
  EXPECT_EQ(ctx.PrecisionFor(OpCategory::kGemm), OpPrecision::kBf16);
  ctx.set_autocast(saved);
  ctx.set_grad_enabled(saved_grad);
}

TEST(RuntimeContextAutocastTest, DispatchCountersTrackPerPrecision) {
  autograd::RuntimeContext& ctx = autograd::RuntimeContext::Current();
  const int64_t fp32_before = ctx.gemm_dispatch(OpPrecision::kFp32);
  const int64_t bf16_before = ctx.gemm_dispatch(OpPrecision::kBf16);
  ctx.RecordGemmDispatch(OpPrecision::kFp32);
  ctx.RecordGemmDispatch(OpPrecision::kBf16);
  ctx.RecordGemmDispatch(OpPrecision::kBf16);
  EXPECT_EQ(ctx.gemm_dispatch(OpPrecision::kFp32), fp32_before + 1);
  EXPECT_EQ(ctx.gemm_dispatch(OpPrecision::kBf16), bf16_before + 2);
}

}  // namespace
}  // namespace metalora
