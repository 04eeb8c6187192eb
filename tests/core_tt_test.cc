// Tensor-train specifics of core::TnAdapter: the mode split, and the
// contracted D/U factors reproducing the explicit 4-core (resp.
// channel×spatial) contraction in the documented layouts. Forward == ΔW,
// closed-form counts and gradient checks run over the case table in
// core_tn_adapter_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "core/tn_adapter.h"
#include "tensor/random_init.h"
#include "tn/tn_cost.h"

namespace metalora {
namespace core {
namespace {

AdapterOptions TtOpts(AdapterKind kind, int64_t rank = 3) {
  AdapterOptions o;
  o.kind = kind;
  o.rank = rank;
  o.alpha = static_cast<float>(rank);  // scaling = 1 for simpler algebra
  o.seed = 11;
  return o;
}

std::unique_ptr<nn::Linear> BaseLinear(int64_t in = 6, int64_t out = 4) {
  Rng rng(2);
  return std::make_unique<nn::Linear>(in, out, true, rng);
}

std::unique_ptr<nn::Conv2d> BaseConv() {
  Rng rng(2);
  return std::make_unique<nn::Conv2d>(2, 4, 3, 1, 1, false, rng);
}

/// The last TT core starts at zero (pre-trained point); give it mass so a
/// wrong contraction cannot hide behind ΔW = 0.
void RandomizeOutputCore(nn::Module& m, uint64_t seed) {
  Rng rng(seed);
  for (auto& np : m.NamedParameters()) {
    if (np.name == "tt_out_b" || np.name == "tt_out") {
      FillNormal(np.variable->mutable_value(), rng, 0.0f, 0.5f);
    }
  }
}

Tensor NamedParam(nn::Module& m, const std::string& name) {
  for (auto& np : m.NamedParameters()) {
    if (np.name == name) return np.variable->value();
  }
  ADD_FAILURE() << "parameter " << name << " not found";
  return Tensor();
}

TEST(TtSplitDimTest, PicksLargestDivisorUnderSqrt) {
  EXPECT_EQ(tn::TtSplitDim(6), 2);
  EXPECT_EQ(tn::TtSplitDim(12), 3);
  EXPECT_EQ(tn::TtSplitDim(16), 4);
  EXPECT_EQ(tn::TtSplitDim(64), 8);
  EXPECT_EQ(tn::TtSplitDim(7), 1);   // primes degrade to 1 × d
  EXPECT_EQ(tn::TtSplitDim(1), 1);
}

TEST(TtChainTest, DeltaWeightMatchesExplicitFourCoreContraction) {
  // in = 6 splits 2×3, out = 4 splits 2×2; the mode layouts documented in
  // the header must hold exactly: row (a,b) is the i1-major input index,
  // col (p,q) the o1-major output index.
  const int64_t r = 3, in = 6, out = 4, i1 = 2, i2 = 3, o1 = 2, o2 = 2;
  TnAdapter adapter(BaseLinear(in, out), TtOpts(AdapterKind::kTt, r));
  RandomizeOutputCore(adapter, 17);
  Tensor g1 = NamedParam(adapter, "tt_in_a");   // [i1, r]
  Tensor g2 = NamedParam(adapter, "tt_in_b");   // [r, i2, r]
  Tensor g3 = NamedParam(adapter, "tt_out_a");  // [r, o1, r]
  Tensor g4 = NamedParam(adapter, "tt_out_b");  // [r, o2]
  Tensor delta = adapter.DeltaWeight();         // [out, in]
  for (int64_t a = 0; a < i1; ++a) {
    for (int64_t b = 0; b < i2; ++b) {
      for (int64_t p = 0; p < o1; ++p) {
        for (int64_t q = 0; q < o2; ++q) {
          double acc = 0;
          for (int64_t r0 = 0; r0 < r; ++r0) {
            double adown = 0;
            for (int64_t ra = 0; ra < r; ++ra) {
              adown += static_cast<double>(g1.flat(a * r + ra)) *
                       g2.flat((ra * i2 + b) * r + r0);
            }
            double bup = 0;
            for (int64_t rb = 0; rb < r; ++rb) {
              bup += static_cast<double>(g3.flat((r0 * o1 + p) * r + rb)) *
                     g4.flat(rb * o2 + q);
            }
            acc += adown * bup;
          }
          const int64_t i = a * i2 + b, o = p * o2 + q;
          EXPECT_NEAR(delta.flat(o * in + i), acc, 1e-4)
              << "i=" << i << " o=" << o;
        }
      }
    }
  }
}

TEST(TtConvChainTest, DeltaWeightMatchesExplicitContraction) {
  const int64_t r = 3, in = 2, out = 4, k = 3;
  TnAdapter adapter(BaseConv(), TtOpts(AdapterKind::kTt, r));
  RandomizeOutputCore(adapter, 29);
  Tensor gc = NamedParam(adapter, "tt_channel");  // [r, in, r]
  Tensor gs = NamedParam(adapter, "tt_spatial");  // [r, k·k]
  Tensor go = NamedParam(adapter, "tt_out");      // [out, r]
  Tensor delta = adapter.DeltaWeight();           // [out, in, k, k]
  for (int64_t o = 0; o < out; ++o) {
    for (int64_t i = 0; i < in; ++i) {
      for (int64_t s = 0; s < k * k; ++s) {
        double acc = 0;
        for (int64_t r0 = 0; r0 < r; ++r0) {
          double wdown = 0;
          for (int64_t r1 = 0; r1 < r; ++r1) {
            wdown += static_cast<double>(gc.flat((r0 * in + i) * r + r1)) *
                     gs.flat(r1 * k * k + s);
          }
          acc += static_cast<double>(go.flat(o * r + r0)) * wdown;
        }
        EXPECT_NEAR(delta.flat((o * in + i) * k * k + s), acc, 1e-4);
      }
    }
  }
}

TEST(TtParamCountTest, UndercutsLoraOnSquareLayers) {
  // The efficiency claim that motivates the family: on a 64×64 layer at
  // rank 3, four TT cores store fewer floats than the LoRA pair.
  EXPECT_LT(tn::TtLinearParams(64, 64, 3), tn::LoraLinearParams(64, 64, 3));
}

}  // namespace
}  // namespace core
}  // namespace metalora
