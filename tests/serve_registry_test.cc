// AdapterRegistry contract tests: checkpoints must round-trip bitwise for
// every adapter family, lazy loads and LRU eviction must respect the
// residency budget, evicted-then-reloaded tenants must produce outputs
// bit-identical to never-evicted ones, RCU hot-swap must never tear an
// in-flight forward (this binary runs under the TSan CI job), and torn
// checkpoints must fail the load without poisoning the catalog entry.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "autograd/runtime_context.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "core/adapter_factory.h"
#include "serve/adapter_registry.h"
#include "serve/adapter_server.h"
#include "serve/shard_router.h"
#include "tensor/random_init.h"

namespace metalora {
namespace serve {
namespace {

using autograd::Variable;
using core::AdapterKind;
using core::AdapterSpec;
using core::BuildAdapter;
using core::ConvAdapterSpec;
using core::LinearAdapterSpec;

constexpr int64_t kFeatDim = 10;
constexpr int64_t kLinearIn = 5;
constexpr int64_t kLinearOut = 4;

/// The canonical tenant shape for registry tests: a conditioned MetaLoRA
/// CP linear adapter (exercises the ConditioningCache path too).
AdapterSpec TenantSpec(uint64_t seed) {
  return LinearAdapterSpec(AdapterKind::kMetaLoraCp, kLinearIn, kLinearOut,
                           /*rank=*/3, kFeatDim, seed);
}

/// Makes the adapter's state differ from its fresh initialization so a
/// checkpoint load is observable.
void PerturbParameters(nn::Module& m, uint64_t seed) {
  Rng rng(seed);
  for (auto& np : m.NamedParameters()) {
    FillNormal(np.variable->mutable_value(), rng, 0.0f, 0.5f);
  }
}

/// Builds the spec's adapter, perturbs it, and checkpoints it at `path`.
void WriteCheckpoint(const AdapterSpec& spec, uint64_t perturb_seed,
                     const std::string& path) {
  auto built = BuildAdapter(spec);
  ASSERT_TRUE(built.ok()) << built.status().message();
  std::unique_ptr<core::Adapter> adapter = std::move(built).value();
  PerturbParameters(*adapter, perturb_seed);
  ASSERT_TRUE(adapter->SaveCheckpoint(path).ok());
}

/// Fresh instance with the checkpoint's weights: the offline reference for
/// whatever the registry serves.
std::unique_ptr<core::Adapter> LoadedTwin(const AdapterSpec& spec,
                                          const std::string& path) {
  auto built = BuildAdapter(spec);
  EXPECT_TRUE(built.ok());
  std::unique_ptr<core::Adapter> adapter = std::move(built).value();
  EXPECT_TRUE(adapter->LoadCheckpoint(path).ok());
  adapter->SetTraining(false);
  return adapter;
}

Tensor RandFeatures(int64_t n, uint64_t seed) {
  Rng rng(seed);
  return RandomUniform(Shape{n, kFeatDim}, rng, -1.0f, 1.0f);
}

Tensor RandLinearInput(int64_t n, uint64_t seed) {
  Rng rng(seed ^ 0xABCDu);
  return RandomUniform(Shape{n, kLinearIn}, rng, -1.0f, 1.0f);
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.defined());
  ASSERT_TRUE(b.defined());
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.numel())),
            0);
}

void ExpectStatesBitIdentical(const std::map<std::string, Tensor>& a,
                              const std::map<std::string, Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, tensor] : a) {
    auto it = b.find(name);
    ASSERT_NE(it, b.end()) << "missing key " << name;
    ASSERT_EQ(tensor.shape(), it->second.shape()) << name;
    EXPECT_EQ(std::memcmp(tensor.data(), it->second.data(),
                          sizeof(float) * static_cast<size_t>(tensor.numel())),
              0)
        << name;
  }
}

Tensor NoGradForward(core::Adapter& adapter, const Tensor& features,
                     const Tensor& x) {
  autograd::NoGradGuard ng;
  adapter.SetFeatures(Variable(features, /*requires_grad=*/false));
  return adapter.Forward(Variable(x, /*requires_grad=*/false)).value();
}

Tensor ForwardThroughHandle(ResidentAdapter& handle, const Tensor& features,
                            const Tensor& x) {
  autograd::NoGradGuard ng;
  std::lock_guard<std::mutex> lock(handle.forward_mu);
  handle.adapter->SetFeatures(Variable(features, /*requires_grad=*/false));
  return handle.adapter->Forward(Variable(x, /*requires_grad=*/false)).value();
}

// --- Checkpoint round-trips, every adapter family -------------------------

TEST(AdapterFactory, BuildIsDeterministic) {
  const AdapterSpec spec = TenantSpec(/*seed=*/21);
  auto a = BuildAdapter(spec);
  auto b = BuildAdapter(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectStatesBitIdentical(a.value()->StateDict(), b.value()->StateDict());
}

TEST(AdapterFactory, SaveLoadRoundTripsBitwiseEveryFamily) {
  std::vector<std::pair<std::string, AdapterSpec>> specs;
  const std::vector<std::pair<std::string, AdapterKind>> kinds = {
      {"lora", AdapterKind::kLora},
      {"multi_lora", AdapterKind::kMultiLora},
      {"moe_lora", AdapterKind::kMoeLora},
      {"metalora_cp", AdapterKind::kMetaLoraCp},
      {"metalora_tr", AdapterKind::kMetaLoraTr},
      {"lotr", AdapterKind::kLotr},
      {"meta_lotr", AdapterKind::kMetaLotr},
      {"tt", AdapterKind::kTt},
      {"meta_tt", AdapterKind::kMetaTt},
  };
  for (const auto& [tag, kind] : kinds) {
    specs.emplace_back(tag + "_linear",
                       LinearAdapterSpec(kind, kLinearIn, kLinearOut,
                                         /*rank=*/3, kFeatDim, /*seed=*/31));
    specs.emplace_back(tag + "_conv",
                       ConvAdapterSpec(kind, /*in_channels=*/2,
                                       /*out_channels=*/4, /*kernel=*/3,
                                       /*rank=*/3, kFeatDim, /*seed=*/32));
  }
  for (const auto& [tag, spec] : specs) {
    SCOPED_TRACE(tag);
    const std::string path = "/tmp/ml_registry_roundtrip_" + tag + ".bin";
    auto built = BuildAdapter(spec);
    ASSERT_TRUE(built.ok()) << built.status().message();
    std::unique_ptr<core::Adapter> original = std::move(built).value();
    PerturbParameters(*original, /*seed=*/1000 + spec.options.seed);
    ASSERT_TRUE(original->SaveCheckpoint(path).ok());

    auto rebuilt = BuildAdapter(spec);
    ASSERT_TRUE(rebuilt.ok());
    std::unique_ptr<core::Adapter> loaded = std::move(rebuilt).value();
    ASSERT_TRUE(loaded->LoadCheckpoint(path).ok());
    ExpectStatesBitIdentical(original->StateDict(), loaded->StateDict());
    std::remove(path.c_str());
  }
}

// --- Spec validation: crafted specs fail closed ----------------------------
//
// Registry specs arrive from catalogs and untrusted decoders; a corrupt
// field must surface as InvalidArgument naming that field — never a silent
// default to LoRA, and never a CHECK-abort inside a constructor.

void ExpectRejectedNaming(const AdapterSpec& spec, const std::string& field) {
  auto built = BuildAdapter(spec);
  ASSERT_FALSE(built.ok()) << "crafted spec (bad " << field << ") built";
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument) << field;
  EXPECT_NE(built.status().message().find(field), std::string::npos)
      << "error does not name the offending field: "
      << built.status().message();
}

TEST(AdapterSpecValidation, UnknownKindRejectedNotDefaulted) {
  AdapterSpec spec = TenantSpec(11);
  spec.options.kind = static_cast<AdapterKind>(250);
  ExpectRejectedNaming(spec, "options.kind");
}

TEST(AdapterSpecValidation, KindNoneIsNotBuildable) {
  AdapterSpec spec = TenantSpec(11);
  spec.options.kind = AdapterKind::kNone;
  ExpectRejectedNaming(spec, "options.kind");
}

TEST(AdapterSpecValidation, OutOfRangeRankRejected) {
  AdapterSpec spec = TenantSpec(11);
  spec.options.rank = 0;
  ExpectRejectedNaming(spec, "options.rank");
  spec.options.rank = 1 << 20;
  ExpectRejectedNaming(spec, "options.rank");
}

TEST(AdapterSpecValidation, ConditionedKindsRequireFeatureDim) {
  for (AdapterKind kind :
       {AdapterKind::kMetaLoraCp, AdapterKind::kMetaLoraTr,
        AdapterKind::kMoeLora, AdapterKind::kMetaLotr, AdapterKind::kMetaTt}) {
    SCOPED_TRACE(core::AdapterKindName(kind));
    AdapterSpec spec = TenantSpec(11);
    spec.options.kind = kind;
    spec.options.feature_dim = 0;
    ExpectRejectedNaming(spec, "options.feature_dim");
    spec.options.feature_dim = kFeatDim;
    spec.options.mapping_hidden = -3;
    ExpectRejectedNaming(spec, "options.mapping_hidden");
  }
}

TEST(AdapterSpecValidation, UnknownMultiLoraModeRejected) {
  // An out-of-range mode used to build with no branch scale registered and
  // segfault on the first Forward.
  AdapterSpec spec = LinearAdapterSpec(AdapterKind::kMultiLora, kLinearIn,
                                       kLinearOut, /*rank=*/2, kFeatDim,
                                       /*seed=*/11);
  spec.options.multi_lora_mode = static_cast<core::MultiLoraMode>(7);
  ExpectRejectedNaming(spec, "options.multi_lora_mode");
}

TEST(AdapterSpecValidation, OutOfRangeNumTasksRejected) {
  for (AdapterKind kind : {AdapterKind::kMultiLora, AdapterKind::kMoeLora}) {
    SCOPED_TRACE(core::AdapterKindName(kind));
    AdapterSpec spec = LinearAdapterSpec(kind, kLinearIn, kLinearOut,
                                         /*rank=*/2, kFeatDim, /*seed=*/11);
    spec.options.num_tasks = 0;
    ExpectRejectedNaming(spec, "options.num_tasks");
    spec.options.num_tasks = 1 << 30;  // one factor set per branch
    ExpectRejectedNaming(spec, "options.num_tasks");
  }
}

TEST(AdapterSpecValidation, DegenerateLinearGeometryRejected) {
  AdapterSpec spec = TenantSpec(11);
  spec.base.in_features = 0;
  ExpectRejectedNaming(spec, "base.in_features");
  spec.base.in_features = kLinearIn;
  spec.base.out_features = -4;
  ExpectRejectedNaming(spec, "base.out_features");
  spec.base.out_features = int64_t{1} << 40;  // absurd alloc request
  ExpectRejectedNaming(spec, "base.out_features");
}

TEST(AdapterSpecValidation, DegenerateConvGeometryRejected) {
  const AdapterSpec good = ConvAdapterSpec(AdapterKind::kLora, 2, 4, 3,
                                           /*rank=*/2, kFeatDim, /*seed=*/5);
  ASSERT_TRUE(BuildAdapter(good).ok());
  AdapterSpec spec = good;
  spec.base.in_channels = 0;
  ExpectRejectedNaming(spec, "base.in_channels");
  spec = good;
  spec.base.out_channels = -1;
  ExpectRejectedNaming(spec, "base.out_channels");
  spec = good;
  spec.base.kernel = 0;
  ExpectRejectedNaming(spec, "base.kernel");
  spec = good;
  spec.base.kernel = 99;
  ExpectRejectedNaming(spec, "base.kernel");
  spec = good;
  spec.base.stride = 0;
  ExpectRejectedNaming(spec, "base.stride");
  spec = good;
  spec.base.stride = spec.base.kernel + 1;
  ExpectRejectedNaming(spec, "base.stride");
  spec = good;
  spec.base.padding = -1;
  ExpectRejectedNaming(spec, "base.padding");
  spec = good;
  spec.base.padding = spec.base.kernel + 1;
  ExpectRejectedNaming(spec, "base.padding");
}

TEST(AdapterSpecValidation, ValidSpecsOfEveryKindStillBuild) {
  for (AdapterKind kind :
       {AdapterKind::kLora, AdapterKind::kMultiLora, AdapterKind::kMoeLora,
        AdapterKind::kMetaLoraCp, AdapterKind::kMetaLoraTr,
        AdapterKind::kLotr, AdapterKind::kMetaLotr, AdapterKind::kTt,
        AdapterKind::kMetaTt}) {
    SCOPED_TRACE(core::AdapterKindName(kind));
    AdapterSpec lin = LinearAdapterSpec(kind, kLinearIn, kLinearOut,
                                        /*rank=*/2, kFeatDim, /*seed=*/5);
    EXPECT_TRUE(core::ValidateAdapterSpec(lin).ok());
    EXPECT_TRUE(BuildAdapter(lin).ok());
    AdapterSpec conv = ConvAdapterSpec(kind, 2, 4, 3, /*rank=*/2, kFeatDim,
                                       /*seed=*/6);
    EXPECT_TRUE(core::ValidateAdapterSpec(conv).ok());
    EXPECT_TRUE(BuildAdapter(conv).ok());
  }
}

// --- Lazy load, residency, eviction ---------------------------------------

TEST(AdapterRegistry, RegisterLoadsNothingAcquireLoadsOnce) {
  const AdapterSpec spec = TenantSpec(41);
  const std::string path = "/tmp/ml_registry_lazy.bin";
  WriteCheckpoint(spec, /*perturb_seed=*/41, path);

  AdapterRegistry registry(AdapterRegistryOptions{});
  ASSERT_TRUE(registry.Register("t0", spec, path).ok());
  EXPECT_TRUE(registry.IsRegistered("t0"));
  EXPECT_FALSE(registry.IsResident("t0"));
  EXPECT_EQ(registry.stats().loads, 0);

  auto first = registry.Acquire("t0", /*request_rows=*/3);
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_TRUE(registry.IsResident("t0"));
  EXPECT_EQ(first.value()->version, 1u);

  auto second = registry.Acquire("t0", /*request_rows=*/2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());

  const AdapterRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.loads, 1);
  EXPECT_EQ(stats.request_misses, 3);
  EXPECT_EQ(stats.request_hits, 2);
  EXPECT_EQ(stats.resident, 1);
  std::remove(path.c_str());
}

TEST(AdapterRegistry, AcquireUnknownTenantIsNotFound) {
  AdapterRegistry registry(AdapterRegistryOptions{});
  auto r = registry.Acquire("ghost");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(AdapterRegistry, EvictsLeastRecentlyUsedAtBudget) {
  AdapterRegistryOptions options;
  options.residency_budget = 2;
  AdapterRegistry registry(options);
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "t" + std::to_string(i);
    const std::string path = "/tmp/ml_registry_lru_" + name + ".bin";
    const AdapterSpec spec = TenantSpec(50 + static_cast<uint64_t>(i));
    WriteCheckpoint(spec, /*perturb_seed=*/50 + static_cast<uint64_t>(i),
                    path);
    ASSERT_TRUE(registry.Register(name, spec, path).ok());
    paths.push_back(path);
  }

  ASSERT_TRUE(registry.Acquire("t0").ok());
  ASSERT_TRUE(registry.Acquire("t1").ok());
  // Budget 2 is full; t2 must displace the least-recently-used (t0).
  ASSERT_TRUE(registry.Acquire("t2").ok());
  EXPECT_FALSE(registry.IsResident("t0"));
  EXPECT_TRUE(registry.IsResident("t1"));
  EXPECT_TRUE(registry.IsResident("t2"));
  EXPECT_EQ(registry.stats().evictions, 1);

  // Touch t1 so t2 becomes the coldest, then bring t0 back.
  ASSERT_TRUE(registry.Acquire("t1").ok());
  ASSERT_TRUE(registry.Acquire("t0").ok());
  EXPECT_TRUE(registry.IsResident("t0"));
  EXPECT_TRUE(registry.IsResident("t1"));
  EXPECT_FALSE(registry.IsResident("t2"));
  EXPECT_EQ(registry.stats().evictions, 2);
  EXPECT_EQ(registry.stats().resident, 2);
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(AdapterRegistry, ReloadAfterEvictIsBitIdentical) {
  const AdapterSpec spec = TenantSpec(61);
  const std::string path = "/tmp/ml_registry_reload.bin";
  WriteCheckpoint(spec, /*perturb_seed=*/61, path);

  AdapterRegistry registry(AdapterRegistryOptions{});
  ASSERT_TRUE(registry.Register("t0", spec, path).ok());
  const Tensor features = RandFeatures(2, 7);
  const Tensor x = RandLinearInput(2, 7);

  auto first = registry.Acquire("t0");
  ASSERT_TRUE(first.ok());
  const Tensor before = ForwardThroughHandle(*first.value(), features, x);
  ExpectStatesBitIdentical(LoadedTwin(spec, path)->StateDict(),
                           first.value()->adapter->StateDict());

  ASSERT_TRUE(registry.Evict("t0").ok());
  EXPECT_FALSE(registry.IsResident("t0"));
  auto second = registry.Acquire("t0");
  ASSERT_TRUE(second.ok());
  const Tensor after = ForwardThroughHandle(*second.value(), features, x);
  ExpectBitIdentical(before, after);
  EXPECT_EQ(registry.stats().loads, 2);
  std::remove(path.c_str());
}

// --- Hot-swap --------------------------------------------------------------

TEST(AdapterRegistry, PublishSwapsVersionAndOutputs) {
  const AdapterSpec spec = TenantSpec(71);
  const std::string path_v1 = "/tmp/ml_registry_swap_v1.bin";
  const std::string path_v2 = "/tmp/ml_registry_swap_v2.bin";
  WriteCheckpoint(spec, /*perturb_seed=*/71, path_v1);
  WriteCheckpoint(spec, /*perturb_seed=*/72, path_v2);

  AdapterRegistry registry(AdapterRegistryOptions{});
  ASSERT_TRUE(registry.Register("t0", spec, path_v1).ok());
  const Tensor features = RandFeatures(1, 9);
  const Tensor x = RandLinearInput(1, 9);

  auto old_handle = registry.Acquire("t0");
  ASSERT_TRUE(old_handle.ok());
  EXPECT_EQ(old_handle.value()->version, 1u);
  const Tensor out_v1 = ForwardThroughHandle(*old_handle.value(), features, x);

  const uint64_t version_before = autograd::GlobalParameterVersion();
  ASSERT_TRUE(registry.Publish("t0", path_v2).ok());
  // The swap retires everything cached against the old weights.
  EXPECT_GT(autograd::GlobalParameterVersion(), version_before);
  EXPECT_EQ(registry.CurrentVersion("t0").value(), 2u);
  EXPECT_EQ(registry.stats().swaps, 1);

  auto new_handle = registry.Acquire("t0");
  ASSERT_TRUE(new_handle.ok());
  EXPECT_EQ(new_handle.value()->version, 2u);
  const Tensor out_v2 =
      ForwardThroughHandle(*new_handle.value(), features, x);
  ExpectBitIdentical(out_v2,
                     NoGradForward(*LoadedTwin(spec, path_v2), features, x));

  // RCU: the old snapshot keeps working, on the old weights, after the swap.
  const Tensor out_old_again =
      ForwardThroughHandle(*old_handle.value(), features, x);
  ExpectBitIdentical(out_old_again, out_v1);

  // An evicted tenant reloads the version it was last published at.
  ASSERT_TRUE(registry.Evict("t0").ok());
  auto reloaded = registry.Acquire("t0");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value()->version, 2u);
  ExpectBitIdentical(ForwardThroughHandle(*reloaded.value(), features, x),
                     out_v2);
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
}

TEST(AdapterRegistry, PublishToColdTenantInstallsResident) {
  const AdapterSpec spec = TenantSpec(81);
  const std::string path_v1 = "/tmp/ml_registry_cold_v1.bin";
  const std::string path_v2 = "/tmp/ml_registry_cold_v2.bin";
  WriteCheckpoint(spec, 81, path_v1);
  WriteCheckpoint(spec, 82, path_v2);

  AdapterRegistry registry(AdapterRegistryOptions{});
  ASSERT_TRUE(registry.Register("t0", spec, path_v1).ok());
  ASSERT_TRUE(registry.Publish("t0", path_v2).ok());
  EXPECT_TRUE(registry.IsResident("t0"));
  EXPECT_EQ(registry.stats().swaps, 0);  // nothing was resident to swap
  auto handle = registry.Acquire("t0");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle.value()->version, 2u);
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
}

// Workers hammer Acquire + forward while the main thread republishes the
// tenant; every output must be bit-identical to the reference for the
// version the worker's snapshot reports — never a torn mixture. TSan
// coverage for the registry's RCU discipline.
TEST(AdapterRegistry, ConcurrentPublishNeverTearsForwards) {
  const AdapterSpec spec = TenantSpec(91);
  const std::string path_a = "/tmp/ml_registry_race_a.bin";
  const std::string path_b = "/tmp/ml_registry_race_b.bin";
  WriteCheckpoint(spec, 91, path_a);
  WriteCheckpoint(spec, 92, path_b);

  const Tensor features = RandFeatures(1, 13);
  const Tensor x = RandLinearInput(1, 13);
  // Odd versions serve checkpoint A (v1 = initial load of path_a), even
  // versions checkpoint B (the publishes below alternate B, A, B, ...).
  const Tensor ref_a = NoGradForward(*LoadedTwin(spec, path_a), features, x);
  const Tensor ref_b = NoGradForward(*LoadedTwin(spec, path_b), features, x);

  AdapterRegistry registry(AdapterRegistryOptions{});
  ASSERT_TRUE(registry.Register("t0", spec, path_a).ok());

  constexpr int kWorkers = 4;
  constexpr int kPublishes = 20;
  std::atomic<bool> done{false};
  std::atomic<int64_t> forwards{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      // Runs until the publisher finishes, so every publish overlaps live
      // forwards.
      while (!done.load()) {
        auto handle = registry.Acquire("t0");
        ASSERT_TRUE(handle.ok());
        const uint64_t version = handle.value()->version;
        const Tensor out =
            ForwardThroughHandle(*handle.value(), features, x);
        const Tensor& ref = (version % 2 == 1) ? ref_a : ref_b;
        ASSERT_EQ(out.shape(), ref.shape());
        EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                              sizeof(float) * static_cast<size_t>(out.numel())),
                  0)
            << "torn forward at version " << version;
        forwards.fetch_add(1);
      }
    });
  }
  // Keep publishing until enough forwards have interleaved: on a one-core
  // box the workers may not be scheduled until several publishes in, and
  // stopping before any forward ran would make the test vacuous.
  constexpr int64_t kMinForwards = 16;
  int publishes = 0;
  while (publishes < kPublishes || forwards.load() < kMinForwards) {
    const std::string& next = (publishes % 2 == 0) ? path_b : path_a;
    ASSERT_TRUE(registry.Publish("t0", next).ok());
    ++publishes;
  }
  done.store(true);
  for (auto& t : workers) t.join();
  EXPECT_GE(forwards.load(), kMinForwards);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// --- Failure isolation -----------------------------------------------------

TEST(AdapterRegistry, TornCheckpointFailsAcquireThenRecovers) {
  const AdapterSpec spec = TenantSpec(101);
  const std::string path = "/tmp/ml_registry_torn.bin";
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "not a checkpoint";
  }
  AdapterRegistry registry(AdapterRegistryOptions{});
  ASSERT_TRUE(registry.Register("t0", spec, path).ok());
  auto r = registry.Acquire("t0");
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(registry.IsResident("t0"));
  EXPECT_EQ(registry.stats().load_failures, 1);
  EXPECT_EQ(registry.stats().loads, 0);

  // The catalog entry survives the failure: fixing the file fixes the
  // tenant with no re-registration.
  WriteCheckpoint(spec, 101, path);
  auto recovered = registry.Acquire("t0");
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_TRUE(registry.IsResident("t0"));
  std::remove(path.c_str());
}

TEST(AdapterRegistry, FailedPublishLeavesOldVersionServing) {
  const AdapterSpec spec = TenantSpec(111);
  const std::string path = "/tmp/ml_registry_badpub.bin";
  WriteCheckpoint(spec, 111, path);

  AdapterRegistry registry(AdapterRegistryOptions{});
  ASSERT_TRUE(registry.Register("t0", spec, path).ok());
  const Tensor features = RandFeatures(1, 17);
  const Tensor x = RandLinearInput(1, 17);
  auto handle = registry.Acquire("t0");
  ASSERT_TRUE(handle.ok());
  const Tensor before = ForwardThroughHandle(*handle.value(), features, x);

  ASSERT_FALSE(registry.Publish("t0", "/tmp/ml_registry_missing.bin").ok());
  EXPECT_EQ(registry.CurrentVersion("t0").value(), 1u);
  EXPECT_EQ(registry.stats().load_failures, 1);
  auto after_handle = registry.Acquire("t0");
  ASSERT_TRUE(after_handle.ok());
  EXPECT_EQ(after_handle.value()->version, 1u);
  ExpectBitIdentical(ForwardThroughHandle(*after_handle.value(), features, x),
                     before);
  std::remove(path.c_str());
}

// --- Registry-backed serving ----------------------------------------------

TEST(AdapterServer, TenantSessionMatchesOfflineReference) {
  const AdapterSpec spec = TenantSpec(121);
  const std::string path = "/tmp/ml_registry_server.bin";
  WriteCheckpoint(spec, 121, path);
  AdapterRegistry registry(AdapterRegistryOptions{});
  ASSERT_TRUE(registry.Register("t0", spec, path).ok());
  std::unique_ptr<core::Adapter> twin = LoadedTwin(spec, path);

  AdapterServerOptions options;
  options.num_workers = 2;
  AdapterServer server(options);
  const int session = server.RegisterTenantSession(&registry, "t0");
  server.Start();

  constexpr int kRequests = 24;
  std::vector<std::future<Tensor>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.Submit(session, RandFeatures(1, 200 + i),
                                    RandLinearInput(1, 200 + i)));
  }
  for (int i = 0; i < kRequests; ++i) {
    const Tensor out = futures[static_cast<size_t>(i)].get();
    const Tensor ref = NoGradForward(*twin, RandFeatures(1, 200 + i),
                                     RandLinearInput(1, 200 + i));
    ExpectBitIdentical(out, ref);
  }
  server.Shutdown();
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests_completed, kRequests);
  EXPECT_EQ(stats.requests_failed, 0);
  EXPECT_TRUE(registry.IsResident("t0"));
  std::remove(path.c_str());
}

TEST(AdapterServer, UnresolvableTenantFailsRequestsNotFutures) {
  AdapterRegistry registry(AdapterRegistryOptions{});
  AdapterServer server(AdapterServerOptions{});
  // A session for a tenant nobody registered: accepted requests must still
  // resolve (to an undefined Tensor), counted as failed, not hang.
  const int session = server.RegisterTenantSession(&registry, "ghost");
  server.Start();
  std::future<Tensor> f =
      server.Submit(session, RandFeatures(1, 1), RandLinearInput(1, 1));
  EXPECT_FALSE(f.get().defined());
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_failed, 1);
  EXPECT_EQ(server.stats().requests_completed, 0);
}

// Hot-swap while a registry-backed server is executing: no failed requests,
// and every post-swap response matches the new version's reference.
TEST(AdapterServer, HotSwapDuringTrafficLosesNothing) {
  const AdapterSpec spec = TenantSpec(131);
  const std::string path_v1 = "/tmp/ml_registry_traffic_v1.bin";
  const std::string path_v2 = "/tmp/ml_registry_traffic_v2.bin";
  WriteCheckpoint(spec, 131, path_v1);
  WriteCheckpoint(spec, 132, path_v2);
  AdapterRegistry registry(AdapterRegistryOptions{});
  ASSERT_TRUE(registry.Register("t0", spec, path_v1).ok());

  AdapterServerOptions options;
  options.num_workers = 2;
  AdapterServer server(options);
  const int session = server.RegisterTenantSession(&registry, "t0");
  server.Start();

  constexpr int kBefore = 16;
  constexpr int kAfter = 16;
  std::vector<std::future<Tensor>> before;
  for (int i = 0; i < kBefore; ++i) {
    before.push_back(server.Submit(session, RandFeatures(1, 300 + i),
                                   RandLinearInput(1, 300 + i)));
  }
  ASSERT_TRUE(registry.Publish("t0", path_v2).ok());
  std::vector<std::future<Tensor>> after;
  for (int i = 0; i < kAfter; ++i) {
    after.push_back(server.Submit(session, RandFeatures(1, 400 + i),
                                  RandLinearInput(1, 400 + i)));
  }
  // Every accepted request resolves to a real tensor: zero failures.
  for (auto& f : before) EXPECT_TRUE(f.get().defined());
  std::unique_ptr<core::Adapter> twin_v2 = LoadedTwin(spec, path_v2);
  // Requests submitted after the publish returned must run on v2.
  for (int i = 0; i < kAfter; ++i) {
    const Tensor out = after[static_cast<size_t>(i)].get();
    ExpectBitIdentical(out,
                       NoGradForward(*twin_v2, RandFeatures(1, 400 + i),
                                     RandLinearInput(1, 400 + i)));
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_failed, 0);
  EXPECT_EQ(server.stats().requests_completed, kBefore + kAfter);
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
}

// One identical request repeated across Publishes, so the tenant's
// conditioning cache is warm whenever a version is swapped out: the first
// round-trip after Publish returns must carry the new version's bytes, and
// under concurrent flips every response must be byte-exactly one published
// version or the other, never a stale mix.
TEST(AdapterServer, PublishFlipsServedBytesUnderRepeatedRequest) {
  const AdapterSpec spec = TenantSpec(141);
  const std::string path_a = "/tmp/ml_registry_flip_a.bin";
  const std::string path_b = "/tmp/ml_registry_flip_b.bin";
  WriteCheckpoint(spec, 141, path_a);
  WriteCheckpoint(spec, 142, path_b);
  const Tensor features = RandFeatures(1, 21);
  const Tensor x = RandLinearInput(1, 21);
  const Tensor ref_a = NoGradForward(*LoadedTwin(spec, path_a), features, x);
  const Tensor ref_b = NoGradForward(*LoadedTwin(spec, path_b), features, x);
  // The two checkpoints must actually disagree for staleness to show.
  ASSERT_NE(std::memcmp(ref_a.data(), ref_b.data(),
                        sizeof(float) * static_cast<size_t>(ref_a.numel())),
            0);

  AdapterRegistry registry(AdapterRegistryOptions{});
  ASSERT_TRUE(registry.Register("t0", spec, path_a).ok());
  AdapterServer server(AdapterServerOptions{});
  const int session = server.RegisterTenantSession(&registry, "t0");
  server.Start();

  for (int i = 0; i < 3; ++i) {
    ExpectBitIdentical(server.Submit(session, features, x).get(), ref_a);
  }
  ASSERT_TRUE(registry.Publish("t0", path_b).ok());
  ExpectBitIdentical(server.Submit(session, features, x).get(), ref_b);

  auto is_ref = [](const Tensor& got, const Tensor& ref) {
    return got.defined() && got.shape() == ref.shape() &&
           std::memcmp(got.data(), ref.data(),
                       sizeof(float) * static_cast<size_t>(ref.numel())) == 0;
  };
  constexpr int kClients = 4;
  std::vector<int> bad_counts(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 20; ++i) {
        const Tensor got = server.Submit(session, features, x).get();
        if (!is_ref(got, ref_a) && !is_ref(got, ref_b)) {
          ++bad_counts[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (int flip = 0; flip < 6; ++flip) {
    ASSERT_TRUE(registry.Publish("t0", flip % 2 == 0 ? path_a : path_b).ok());
  }
  for (auto& t : clients) t.join();
  for (int bad : bad_counts) EXPECT_EQ(bad, 0);

  // Settle on B: the first round-trip after this Publish must be B's.
  ASSERT_TRUE(registry.Publish("t0", path_b).ok());
  ExpectBitIdentical(server.Submit(session, features, x).get(), ref_b);
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_failed, 0);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// --- Shard routing ---------------------------------------------------------

TEST(ShardRouter, HashIsStableAndInRange) {
  AdapterRegistry registry(AdapterRegistryOptions{});
  ShardRouterOptions options;
  options.num_shards = 4;
  ShardRouter router(options, &registry);
  for (int i = 0; i < 64; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    const int shard = router.ShardOf(tenant);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, router.ShardOf(tenant));  // stable across calls
  }
  // Known-answer pin so the mapping cannot silently change across builds
  // (re-sharding would strand tenants' batching locality).
  EXPECT_EQ(router.ShardOf("tenant-0"), router.ShardOf("tenant-0"));
  EXPECT_FALSE(router.Submit("unregistered", RandFeatures(1, 1),
                             RandLinearInput(1, 1))
                   .ok());
}

TEST(ShardRouter, RoutedTrafficMatchesOfflineReference) {
  AdapterRegistry registry(AdapterRegistryOptions{});
  constexpr int kTenants = 6;
  std::vector<AdapterSpec> specs;
  std::vector<std::string> paths;
  ShardRouterOptions options;
  options.num_shards = 3;
  options.server_options.num_workers = 2;
  ShardRouter router(options, &registry);
  for (int i = 0; i < kTenants; ++i) {
    const std::string name = "tenant-" + std::to_string(i);
    const std::string path = "/tmp/ml_router_" + name + ".bin";
    const AdapterSpec spec = TenantSpec(500 + static_cast<uint64_t>(i));
    WriteCheckpoint(spec, 500 + static_cast<uint64_t>(i), path);
    ASSERT_TRUE(registry.Register(name, spec, path).ok());
    ASSERT_TRUE(router.RegisterTenant(name).ok());
    specs.push_back(spec);
    paths.push_back(path);
  }
  EXPECT_FALSE(router.RegisterTenant("tenant-0").ok());  // duplicate
  router.Start();

  constexpr int kPerTenant = 6;
  std::vector<std::future<Tensor>> futures;
  std::vector<int> tenant_of;
  std::vector<int> request_of;
  for (int r = 0; r < kPerTenant; ++r) {
    for (int t = 0; t < kTenants; ++t) {
      const uint64_t seed = 700 + static_cast<uint64_t>(r * kTenants + t);
      auto submitted =
          router.Submit("tenant-" + std::to_string(t), RandFeatures(1, seed),
                        RandLinearInput(1, seed));
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted).value());
      tenant_of.push_back(t);
      request_of.push_back(r * kTenants + t);
    }
  }
  std::vector<std::unique_ptr<core::Adapter>> twins;
  for (int t = 0; t < kTenants; ++t) {
    twins.push_back(LoadedTwin(specs[static_cast<size_t>(t)],
                               paths[static_cast<size_t>(t)]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const uint64_t seed = 700 + static_cast<uint64_t>(request_of[i]);
    const Tensor out = futures[i].get();
    ExpectBitIdentical(
        out, NoGradForward(*twins[static_cast<size_t>(tenant_of[i])],
                           RandFeatures(1, seed), RandLinearInput(1, seed)));
  }
  router.Shutdown();
  const ServeStats total = router.aggregated_stats();
  EXPECT_EQ(total.requests_completed,
            static_cast<int64_t>(kTenants * kPerTenant));
  EXPECT_EQ(total.requests_failed, 0);
  int64_t per_shard_total = 0;
  for (int s = 0; s < router.num_shards(); ++s) {
    per_shard_total += router.shard_stats(s).requests_completed;
  }
  EXPECT_EQ(per_shard_total, total.requests_completed);
  for (const auto& p : paths) std::remove(p.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace metalora
