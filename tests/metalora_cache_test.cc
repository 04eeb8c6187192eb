// Conditioning-keyed cache of generated factors: repeated no-grad forwards
// with the same features must hit the cache and return byte-identical
// outputs; any optimizer step must invalidate; adapters must never share
// entries; and training-mode forwards must bypass the cache entirely.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "autograd/runtime_context.h"
#include "common/rng.h"
#include "core/conditioning_cache.h"
#include "core/tn_adapter.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "optim/adam.h"
#include "tensor/random_init.h"

namespace metalora {
namespace core {
namespace {

constexpr int64_t kFeatDim = 10;

AdapterOptions MetaOpts(AdapterKind kind, int64_t rank = 3) {
  AdapterOptions o;
  o.kind = kind;
  o.rank = rank;
  o.alpha = static_cast<float>(rank);
  o.feature_dim = kFeatDim;
  o.mapping_hidden = 8;
  o.seed = 11;
  return o;
}

std::unique_ptr<nn::Linear> BaseLinear(int64_t in = 5, int64_t out = 4) {
  Rng rng(2);
  return std::make_unique<nn::Linear>(in, out, true, rng);
}

std::unique_ptr<nn::Conv2d> BaseConv() {
  Rng rng(2);
  return std::make_unique<nn::Conv2d>(2, 4, 3, 1, 1, false, rng);
}

void RandomizeFactors(nn::Module& m, uint64_t seed) {
  Rng rng(seed);
  for (auto& np : m.NamedParameters()) {
    if (np.name == "lora_b" || np.name == "core_b") {
      FillNormal(np.variable->mutable_value(), rng, 0.0f, 0.5f);
    }
  }
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.numel())),
            0);
}

Variable RandFeatures(int64_t n, uint64_t seed) {
  Rng rng(seed);
  return Variable(RandomUniform(Shape{n, kFeatDim}, rng, -1.0f, 1.0f), false);
}

// Runs `adapter` twice on the same (features, x) in no-grad mode and
// checks hit/miss accounting plus warm/cold bit-identity.
void ExpectWarmHitBitIdentical(TnAdapter& adapter, const Variable& x) {
  adapter.SetFeatures(RandFeatures(x.dim(0), 21));
  autograd::NoGradGuard ng;
  Variable y1 = adapter.Forward(x);
  ConditioningCacheStats s1 = adapter.conditioning_cache()->stats();
  EXPECT_EQ(s1.misses, 1);
  EXPECT_EQ(s1.hits, 0);

  Variable y2 = adapter.Forward(x);
  ConditioningCacheStats s2 = adapter.conditioning_cache()->stats();
  EXPECT_EQ(s2.misses, 1);
  EXPECT_EQ(s2.hits, 1);
  ExpectBitIdentical(y1.value(), y2.value());

  // A cleared cache recomputes from scratch; the cold recomputation must
  // reproduce the warm bytes (the bit-identity contract).
  adapter.conditioning_cache()->Clear();
  Variable y3 = adapter.Forward(x);
  ExpectBitIdentical(y1.value(), y3.value());
}

TEST(MetaLoraCache, CpLinearWarmHitBitIdentical) {
  TnAdapter adapter(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  RandomizeFactors(adapter, 5);
  Rng rng(31);
  Variable x(RandomUniform(Shape{6, 5}, rng, -1.0f, 1.0f), false);
  ExpectWarmHitBitIdentical(adapter, x);
}

TEST(MetaLoraCache, TrLinearWarmHitBitIdentical) {
  TnAdapter adapter(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraTr));
  RandomizeFactors(adapter, 6);
  Rng rng(32);
  Variable x(RandomUniform(Shape{6, 5}, rng, -1.0f, 1.0f), false);
  ExpectWarmHitBitIdentical(adapter, x);
}

TEST(MetaLoraCache, CpConvWarmHitBitIdentical) {
  TnAdapter adapter(BaseConv(), MetaOpts(AdapterKind::kMetaLoraCp));
  RandomizeFactors(adapter, 7);
  Rng rng(33);
  Variable x(RandomUniform(Shape{3, 2, 5, 5}, rng, -1.0f, 1.0f), false);
  ExpectWarmHitBitIdentical(adapter, x);
}

TEST(MetaLoraCache, TrConvWarmHitBitIdentical) {
  TnAdapter adapter(BaseConv(), MetaOpts(AdapterKind::kMetaLoraTr));
  RandomizeFactors(adapter, 8);
  Rng rng(34);
  Variable x(RandomUniform(Shape{3, 2, 5, 5}, rng, -1.0f, 1.0f), false);
  ExpectWarmHitBitIdentical(adapter, x);
}

TEST(MetaLoraCache, TrLinearSeedRepetitionAligns) {
  // Token-wise layers see x with more rows than the feature batch; the
  // cached recovery weights must align the same way the cold path does.
  TnAdapter adapter(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraTr));
  RandomizeFactors(adapter, 9);
  adapter.SetFeatures(RandFeatures(2, 22));
  Rng rng(35);
  Variable x(RandomUniform(Shape{6, 5}, rng, -1.0f, 1.0f), false);  // 3 tokens
  autograd::NoGradGuard ng;
  Variable y1 = adapter.Forward(x);
  Variable y2 = adapter.Forward(x);
  EXPECT_EQ(adapter.conditioning_cache()->stats().hits, 1);
  ExpectBitIdentical(y1.value(), y2.value());
}

TEST(MetaLoraCache, OptimizerStepInvalidates) {
  TnAdapter adapter(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  RandomizeFactors(adapter, 10);
  adapter.SetFeatures(RandFeatures(6, 23));
  Rng rng(36);
  Variable x(RandomUniform(Shape{6, 5}, rng, -1.0f, 1.0f), false);

  {
    autograd::NoGradGuard ng;
    adapter.Forward(x);  // miss + insert
  }

  // Training-mode forward/backward: must bypass the cache (no new lookups)
  // while producing gradients for a real optimizer step.
  Variable loss = autograd::SumAll(adapter.Forward(x));
  ConditioningCacheStats mid = adapter.conditioning_cache()->stats();
  EXPECT_EQ(mid.misses, 1);
  EXPECT_EQ(mid.hits, 0);
  adapter.ZeroGrad();
  ASSERT_TRUE(autograd::Backward(loss).ok());

  std::vector<Variable> params;
  for (Variable* p : adapter.TrainableParameters()) params.push_back(*p);
  optim::AdamOptions opts;
  opts.lr = 1e-2;
  optim::Adam adam(params, opts);
  adam.Step();  // bumps the global parameter version

  {
    autograd::NoGradGuard ng;
    adapter.Forward(x);  // stale entry dropped -> invalidation + miss
    adapter.Forward(x);  // fresh entry -> hit
  }
  ConditioningCacheStats s = adapter.conditioning_cache()->stats();
  EXPECT_EQ(s.invalidations, 1);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.hits, 1);
}

TEST(MetaLoraCache, PerAdapterIsolation) {
  // Two identically-configured adapters see the same features: each must
  // fill and consult only its own cache.
  TnAdapter a1(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  TnAdapter a2(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  RandomizeFactors(a1, 11);
  RandomizeFactors(a2, 12);
  Variable feats = RandFeatures(4, 24);
  a1.SetFeatures(feats);
  a2.SetFeatures(feats);
  Rng rng(37);
  Variable x(RandomUniform(Shape{4, 5}, rng, -1.0f, 1.0f), false);

  autograd::NoGradGuard ng;
  a1.Forward(x);
  a2.Forward(x);
  EXPECT_EQ(a1.conditioning_cache()->stats().misses, 1);
  EXPECT_EQ(a1.conditioning_cache()->stats().hits, 0);
  EXPECT_EQ(a2.conditioning_cache()->stats().misses, 1);
  EXPECT_EQ(a2.conditioning_cache()->stats().hits, 0);
}

TEST(MetaLoraCache, SharedFactorStepInvalidatesEveryMemberCache) {
  // Regression for the shared-core (LoTR) family: an optimizer step that
  // touches ONLY the cross-layer shared down/up factors — registered on the
  // group owner, aliased by every member — must invalidate each member's
  // conditioning cache too. Per-adapter version stamps keyed on the
  // adapter's own registered parameters would miss this (the member's own
  // params never moved); the global-version stamp catches it.
  TnAdapter owner(BaseLinear(), MetaOpts(AdapterKind::kMetaLotr));
  TnAdapter::SharedFactors share = owner.share();
  TnAdapter member(BaseLinear(), MetaOpts(AdapterKind::kMetaLotr), &share);
  Rng core_rng(14);
  for (nn::Module* m : {static_cast<nn::Module*>(&owner),
                        static_cast<nn::Module*>(&member)}) {
    for (auto& np : m->NamedParameters()) {
      if (np.name == "lotr_core") {
        FillNormal(np.variable->mutable_value(), core_rng, 0.0f, 0.5f);
      }
    }
  }
  Variable feats = RandFeatures(4, 26);
  owner.SetFeatures(feats);
  member.SetFeatures(feats);
  Rng rng(40);
  Variable x(RandomUniform(Shape{4, 5}, rng, -1.0f, 1.0f), false);

  {
    autograd::NoGradGuard ng;
    owner.Forward(x);
    member.Forward(x);
    owner.Forward(x);
    member.Forward(x);
  }
  EXPECT_EQ(owner.conditioning_cache()->stats().hits, 1);
  EXPECT_EQ(member.conditioning_cache()->stats().hits, 1);

  // Train-mode backward through the MEMBER reaches the shared factors via
  // the alias; step an optimizer that owns only those two tensors.
  owner.ZeroGrad();
  member.ZeroGrad();
  Variable loss = autograd::SumAll(member.Forward(x));
  ASSERT_TRUE(autograd::Backward(loss).ok());
  std::vector<Variable> shared_only;
  for (auto& np : owner.NamedParameters()) {
    if (np.name == "lotr_down" || np.name == "lotr_up") {
      shared_only.push_back(*np.variable);
    }
  }
  ASSERT_EQ(shared_only.size(), 2u);
  optim::AdamOptions aopts;
  aopts.lr = 1e-2;
  optim::Adam adam(shared_only, aopts);
  adam.Step();

  // Both caches held entries computed against the pre-step factors; both
  // must drop them and recompute.
  {
    autograd::NoGradGuard ng;
    owner.Forward(x);
    member.Forward(x);
  }
  EXPECT_EQ(owner.conditioning_cache()->stats().invalidations, 1);
  EXPECT_EQ(member.conditioning_cache()->stats().invalidations, 1);
  EXPECT_EQ(owner.conditioning_cache()->stats().misses, 2);
  EXPECT_EQ(member.conditioning_cache()->stats().misses, 2);
}

TEST(MetaLoraCache, ChecksumSaltSeparatesIdenticalFeatures) {
  Rng rng(38);
  Tensor f = RandomUniform(Shape{2, kFeatDim}, rng, -1.0f, 1.0f);
  EXPECT_NE(ConditioningChecksum(f, 1), ConditioningChecksum(f, 2));
  EXPECT_EQ(ConditioningChecksum(f, 1), ConditioningChecksum(f, 1));
}

TEST(MetaLoraCache, WorkingSetAtCapacityKeepsHitting) {
  // A working set exactly at max_entries must stay fully resident: cycling
  // it produces hits forever and never evicts.
  const int64_t kCap = 4;
  ConditioningCache cache(kCap);
  const uint64_t salt = NextAdapterCacheSalt();
  const uint64_t version = autograd::GlobalParameterVersion();
  std::vector<Tensor> feats;
  for (int64_t i = 0; i < kCap; ++i) {
    feats.push_back(RandFeatures(2, 100 + static_cast<uint64_t>(i)).value());
  }
  for (const Tensor& f : feats) {
    cache.Insert(ConditioningChecksum(f, salt), f, f, version);
  }
  for (int round = 0; round < 3; ++round) {
    for (const Tensor& f : feats) {
      ConditioningEntry e;
      EXPECT_TRUE(cache.Lookup(ConditioningChecksum(f, salt), f, &e));
    }
  }
  ConditioningCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 3 * kCap);
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(cache.size(), kCap);
}

TEST(MetaLoraCache, OverflowEvictsOldestEntryOnly) {
  // Inserting past capacity evicts exactly the FIFO-oldest entry. The
  // pre-fix code cleared the whole map here, so after the overflow only
  // the newest key survived and the rest of the working set thrashed to
  // misses — the assertions below fail against that behaviour.
  const int64_t kCap = 4;
  ConditioningCache cache(kCap);
  const uint64_t salt = NextAdapterCacheSalt();
  const uint64_t version = autograd::GlobalParameterVersion();
  std::vector<Tensor> feats;
  for (int64_t i = 0; i < kCap + 1; ++i) {
    feats.push_back(RandFeatures(2, 200 + static_cast<uint64_t>(i)).value());
  }
  for (const Tensor& f : feats) {
    cache.Insert(ConditioningChecksum(f, salt), f, f, version);
  }
  EXPECT_EQ(cache.size(), kCap);
  EXPECT_EQ(cache.stats().evictions, 1);

  ConditioningEntry e;
  EXPECT_FALSE(
      cache.Lookup(ConditioningChecksum(feats[0], salt), feats[0], &e))
      << "oldest entry should have been the one evicted";
  for (int64_t i = 1; i <= kCap; ++i) {
    EXPECT_TRUE(cache.Lookup(ConditioningChecksum(feats[static_cast<size_t>(i)],
                                                  salt),
                             feats[static_cast<size_t>(i)], &e))
        << "entry " << i << " must survive a single-entry eviction";
  }
  ConditioningCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, kCap);
  EXPECT_EQ(s.misses, 1);
}

TEST(MetaLoraCache, ReinsertOfLiveKeyDoesNotEvict) {
  // Overwriting an existing key must neither grow the map nor evict: the
  // key keeps its original FIFO position.
  ConditioningCache cache(2);
  const uint64_t salt = NextAdapterCacheSalt();
  const uint64_t version = autograd::GlobalParameterVersion();
  Tensor f1 = RandFeatures(2, 301).value();
  Tensor f2 = RandFeatures(2, 302).value();
  cache.Insert(ConditioningChecksum(f1, salt), f1, f1, version);
  cache.Insert(ConditioningChecksum(f2, salt), f2, f2, version);
  cache.Insert(ConditioningChecksum(f1, salt), f1, f1, version);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(MetaLoraCache, StepDuringComputeSkipsInsert) {
  // An optimizer Step() landing while compute() runs makes the freshly
  // computed seed stale. The pre-fix Insert re-read the version *after*
  // compute and stamped the stale seed as current — it was then served
  // until the next step. The fix captures the version before compute and
  // drops the insert when it moved.
  ConditioningCache cache(8);
  const uint64_t salt = NextAdapterCacheSalt();
  Variable feats = RandFeatures(2, 303);
  autograd::NoGradGuard ng;

  int computes = 0;
  auto compute_with_step = [&] {
    ++computes;
    autograd::BumpParameterVersion();  // a Step() lands mid-compute
    return RandFeatures(2, 400);
  };
  cache.GetOrCompute(salt, feats, compute_with_step);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.size(), 0) << "stale seed must not be cached";
  EXPECT_EQ(cache.stats().stale_insert_skips, 1);

  // The next call must recompute (no stale hit) and, with no step landing
  // this time, cache normally.
  auto compute_clean = [&] {
    ++computes;
    return RandFeatures(2, 400);
  };
  cache.GetOrCompute(salt, feats, compute_clean);
  EXPECT_EQ(computes, 2) << "a stale entry was served from the cache";
  EXPECT_EQ(cache.size(), 1);
  cache.GetOrCompute(salt, feats, compute_clean);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(MetaLoraCache, ConcurrentStepNeverServesStaleSeed) {
  // TSan-facing variant: a thread hammers BumpParameterVersion while the
  // main thread runs GetOrCompute in a loop. Each computed seed embeds
  // the version read when its compute started; whenever a call window saw
  // no concurrent bump, a cache hit must return a seed computed at exactly
  // the current version — the pre-fix stamp-after-compute bug could
  // surface an older seed stamped with the newer version here.
  ConditioningCache cache(8);
  const uint64_t salt = NextAdapterCacheSalt();
  Variable feats = RandFeatures(1, 304);
  autograd::NoGradGuard ng;

  std::atomic<bool> stop{false};
  std::thread bumper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      autograd::BumpParameterVersion();
      std::this_thread::yield();
    }
  });

  for (int i = 0; i < 500; ++i) {
    const uint64_t before = autograd::GlobalParameterVersion();
    const int64_t hits_before = cache.stats().hits;
    Variable seed = cache.GetOrCompute(salt, feats, [&] {
      // Pack the raw version bytes (floats can't hold a large counter
      // exactly) so the assertion below can recover it losslessly.
      Tensor t{Shape{1, 2}};
      const uint64_t v = autograd::GlobalParameterVersion();
      std::memcpy(&t.flat(0), &v, sizeof(v));
      return Variable(t, /*requires_grad=*/false);
    });
    const uint64_t after = autograd::GlobalParameterVersion();
    const bool was_hit = cache.stats().hits > hits_before;
    if (was_hit && before == after) {
      uint64_t seed_version = 0;
      std::memcpy(&seed_version, seed.value().data(), sizeof(seed_version));
      EXPECT_EQ(seed_version, before)
          << "hit returned a seed computed under a different param version";
    }
  }
  stop.store(true, std::memory_order_relaxed);
  bumper.join();
}

TEST(MetaLoraCache, ConcurrentLookupsAndInserts) {
  // Server workers read one adapter's cache while another forward inserts
  // into it. Plain threads stand in for them: each binds its own replica
  // slot, warms its own features (an insert) and re-reads a shared warm
  // entry (a lookup), so TSan sees lookups racing inserts under the cache
  // mutex.
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  TnAdapter adapter(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraTr));
  RandomizeFactors(adapter, 13);
  adapter.EnsureReplicaSlots(kThreads);
  Rng rng(39);
  const Variable x(RandomUniform(Shape{6, 5}, rng, -1.0f, 1.0f), false);
  const Variable shared = RandFeatures(6, 25);
  std::vector<Variable> own;
  for (int t = 0; t < kThreads; ++t) own.push_back(RandFeatures(6, 100 + t));

  // Serial references; afterwards only the shared entry stays warm.
  auto forward = [&](const Variable& features) {
    adapter.SetFeatures(features);
    return adapter.Forward(x).value();
  };
  std::vector<Tensor> want_own;
  Tensor want_shared;
  {
    autograd::NoGradGuard ng;
    for (const Variable& f : own) want_own.push_back(forward(f));
    adapter.conditioning_cache()->Clear();
    want_shared = forward(shared);
  }
  const ConditioningCacheStats before = adapter.conditioning_cache()->stats();

  std::vector<std::vector<Tensor>> got(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      autograd::RuntimeContext ctx;
      ctx.set_grad_enabled(false);
      ctx.set_replica_id(t);
      autograd::RuntimeContextScope scope(&ctx);
      for (int r = 0; r < kRounds; ++r) {
        got[t].push_back(forward(r % 2 == 0 ? own[t] : shared));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      ExpectBitIdentical(r % 2 == 0 ? want_own[t] : want_shared, got[t][r]);
    }
  }
  // Each thread misses once, on its first own-features forward.
  const ConditioningCacheStats after = adapter.conditioning_cache()->stats();
  EXPECT_EQ(after.misses - before.misses, kThreads);
  EXPECT_EQ(after.hits - before.hits, kThreads * kRounds - kThreads);
}

}  // namespace
}  // namespace core
}  // namespace metalora
