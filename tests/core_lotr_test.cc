// LoTR group accounting: summed over a geometry group, AdapterParamCount
// counts the shared factors exactly once (on the owner) and equals the
// group's true trainable count. Per-adapter LoTR checks (forward == ΔW,
// share aliasing, closed-form counts, gradients) run over the case table
// in core_tn_adapter_test.cc.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "core/tn_adapter.h"
#include "tn/tn_cost.h"

namespace metalora {
namespace core {
namespace {

AdapterOptions LotrOpts(int64_t rank) {
  AdapterOptions o;
  o.kind = AdapterKind::kLotr;
  o.rank = rank;
  o.alpha = static_cast<float>(rank);
  o.seed = 11;
  return o;
}

std::unique_ptr<nn::Linear> BaseLinear(int64_t in, int64_t out) {
  Rng rng(2);
  return std::make_unique<nn::Linear>(in, out, true, rng);
}

TEST(LotrParamCountTest, GroupCountsSharedFactorsOnce) {
  const int64_t r = 3, in = 5, out = 4;
  TnAdapter owner(BaseLinear(in, out), LotrOpts(r));
  const TnAdapter::SharedFactors share = owner.share();
  TnAdapter m1(BaseLinear(in, out), LotrOpts(r), &share);
  TnAdapter m2(BaseLinear(in, out), LotrOpts(r), &share);
  const int64_t shared = tn::LotrSharedLinearParams(in, out, r);
  const int64_t core = tn::LotrCoreParams(r);
  EXPECT_EQ(owner.AdapterParamCount(), shared + core);
  EXPECT_EQ(m1.AdapterParamCount(), core);
  EXPECT_EQ(m2.AdapterParamCount(), core);
  // Summing AdapterParamCount over the group equals the true trainable
  // total — the registry each module actually exposes to optimizers.
  const int64_t sum = owner.AdapterParamCount() + m1.AdapterParamCount() +
                      m2.AdapterParamCount();
  EXPECT_EQ(sum, owner.TrainableParamCount() + m1.TrainableParamCount() +
                     m2.TrainableParamCount());
  EXPECT_EQ(sum, shared + 3 * core);
}

}  // namespace
}  // namespace core
}  // namespace metalora
