// Multi-tenant serving: hundreds of registered adapters, a small residency
// budget, Zipf-distributed traffic, and hot-swap under load.
//
// Scenario: N tenants, each a small MetaLoRA-CP linear adapter checkpointed
// on disk and cataloged in one AdapterRegistry (budget 32 resident). A
// ShardRouter spreads tenant sessions over 2 AdapterServer shards; client
// threads draw a tenant from a Zipf(1.0) popularity curve and submit a
// burst of single-row requests before redrawing — the bursty per-tenant
// arrival pattern real multi-tenant serving shows (a user's session issues
// many requests in a row), and what makes an LRU residency budget of 32/200
// serve >90% of requests from resident weights even though the top-32 Zipf
// mass alone is only ~69%.
//
// Contracts asserted here, not just reported:
//   1. Zero failed requests, always (including --smoke and during swaps).
//   2. Residency hit-rate >= 90% on the largest sweep row (skipped under
//      --smoke: the tiny smoke row keeps every tenant resident).
//   3. Hot-swap: publishing a new checkpoint for the hottest tenant while
//      traffic is in flight loses nothing, and a post-swap probe is
//      bit-identical to an offline forward of the new checkpoint.
//   4. Evict-then-reload is bit-identical to never-evicted.
//
// Writes BENCH_multi_tenant.json (per-tenant-count residency hit-rate,
// eviction/load counts, p50/p99 latency, swap + reload contract results);
// exits nonzero if any contract fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/runtime_context.h"
#include "autograd/variable.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/adapter_factory.h"
#include "serve/adapter_registry.h"
#include "serve/shard_router.h"
#include "tensor/random_init.h"

using namespace metalora;  // NOLINT

namespace {

constexpr int64_t kFeatureDim = 16;
constexpr int64_t kBaseDim = 16;
constexpr int64_t kRank = 4;
constexpr int64_t kResidencyBudget = 32;
const char* kCheckpointDir = "/tmp/ml_multi_tenant_ckpts";

std::string TenantName(int i) { return "t" + std::to_string(i); }

std::string CheckpointPath(int i, int version) {
  return std::string(kCheckpointDir) + "/" + TenantName(i) + "_v" +
         std::to_string(version) + ".bin";
}

core::AdapterSpec TenantSpec(int i) {
  return core::LinearAdapterSpec(core::AdapterKind::kMetaLoraCp, kBaseDim,
                                 kBaseDim, kRank, kFeatureDim,
                                 /*seed=*/100 + static_cast<uint64_t>(i));
}

/// Builds tenant i's adapter, gives its trainable factors tenant-specific
/// weights, and checkpoints it. Different versions of one tenant differ.
void WriteCheckpoint(int i, int version) {
  auto built = core::BuildAdapter(TenantSpec(i));
  if (!built.ok()) {
    std::cerr << "FATAL: " << built.status().ToString() << "\n";
    std::exit(2);
  }
  std::unique_ptr<core::Adapter> adapter = std::move(built).value();
  Rng rng(5000 + static_cast<uint64_t>(i) * 17 +
          static_cast<uint64_t>(version) * 7919);
  for (auto& np : adapter->NamedParameters()) {
    FillNormal(np.variable->mutable_value(), rng, 0.0f, 0.2f);
  }
  const Status st = adapter->SaveCheckpoint(CheckpointPath(i, version));
  if (!st.ok()) {
    std::cerr << "FATAL: " << st.ToString() << "\n";
    std::exit(2);
  }
}

std::unique_ptr<core::Adapter> LoadedTwin(int i, int version) {
  auto built = core::BuildAdapter(TenantSpec(i));
  std::unique_ptr<core::Adapter> adapter = std::move(built).value();
  const Status st = adapter->LoadCheckpoint(CheckpointPath(i, version));
  if (!st.ok()) {
    std::cerr << "FATAL: " << st.ToString() << "\n";
    std::exit(2);
  }
  adapter->SetTraining(false);
  return adapter;
}

/// Deterministic request stream, unique per id (no repeat traffic, so every
/// request exercises residency).
Tensor RequestFeatures(int64_t id) {
  Rng rng(30000 + static_cast<uint64_t>(id) * 2);
  return RandomNormal(Shape{1, kFeatureDim}, rng);
}

Tensor RequestInput(int64_t id) {
  Rng rng(30001 + static_cast<uint64_t>(id) * 2);
  return RandomNormal(Shape{1, kBaseDim}, rng);
}

Tensor OfflineForward(core::Adapter& adapter, int64_t id) {
  autograd::NoGradGuard ng;
  adapter.SetFeatures(
      autograd::Variable(RequestFeatures(id), /*requires_grad=*/false));
  return adapter
      .Forward(autograd::Variable(RequestInput(id), /*requires_grad=*/false))
      .value()
      .Clone();
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

/// Zipf(1.0) CDF over ranks 0..n-1: P(rank i) proportional to 1/(i+1).
std::vector<double> ZipfCdf(int n) {
  std::vector<double> cdf(static_cast<size_t>(n));
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[static_cast<size_t>(i)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

int DrawZipf(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.Uniform();
  return static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                          cdf.begin());
}

struct TrafficResult {
  int tenants = 0;
  int64_t requests = 0;
  double elapsed_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  int64_t undefined_outputs = 0;
  serve::ServeStats serve_stats;
  serve::AdapterRegistryStats registry_stats;
};

/// Zipf-burst traffic: `clients` threads each draw a tenant rank and fire
/// `burst_len` single-row requests at it before redrawing. Futures are
/// collected and drained after the submit phase.
TrafficResult RunTraffic(int tenants, int clients, int bursts_per_client,
                         int burst_len, serve::ShardRouter* router) {
  const std::vector<double> cdf = ZipfCdf(tenants);
  const int64_t per_client =
      static_cast<int64_t>(bursts_per_client) * burst_len;
  const int64_t total = per_client * clients;
  std::vector<std::future<Tensor>> futures(static_cast<size_t>(total));
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(9000 + static_cast<uint64_t>(c));
      int64_t id = static_cast<int64_t>(c) * per_client;
      for (int b = 0; b < bursts_per_client; ++b) {
        const std::string tenant = TenantName(DrawZipf(cdf, rng));
        for (int r = 0; r < burst_len; ++r, ++id) {
          auto submitted = router->Submit(tenant, RequestFeatures(id),
                                          RequestInput(id));
          if (submitted.ok()) {
            futures[static_cast<size_t>(id)] = std::move(submitted).value();
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  TrafficResult res;
  res.tenants = tenants;
  res.requests = total;
  for (auto& f : futures) {
    if (!f.valid() || !f.get().defined()) ++res.undefined_outputs;
  }
  res.elapsed_s = timer.Seconds();
  return res;
}

/// One sweep row: fresh registry + router over `tenants` checkpoints,
/// Zipf-burst traffic, residency accounting from the registry.
TrafficResult RunSweepRow(int tenants, int clients, int bursts_per_client,
                          int burst_len) {
  serve::AdapterRegistryOptions ropts;
  ropts.residency_budget = kResidencyBudget;
  serve::AdapterRegistry registry(ropts);
  serve::ShardRouterOptions sopts;
  sopts.num_shards = 2;
  sopts.server_options.num_workers = 2;
  sopts.server_options.queue_capacity = 256;
  serve::ShardRouter router(sopts, &registry);
  for (int i = 0; i < tenants; ++i) {
    Status st = registry.Register(TenantName(i), TenantSpec(i),
                                  CheckpointPath(i, 1));
    if (st.ok()) st = router.RegisterTenant(TenantName(i));
    if (!st.ok()) {
      std::cerr << "FATAL: " << st.ToString() << "\n";
      std::exit(2);
    }
  }
  router.Start();
  TrafficResult res =
      RunTraffic(tenants, clients, bursts_per_client, burst_len, &router);
  router.Shutdown();
  res.serve_stats = router.aggregated_stats();
  res.registry_stats = registry.stats();
  res.p50_us = res.serve_stats.LatencyPercentileUs(50);
  res.p99_us = res.serve_stats.LatencyPercentileUs(99);
  return res;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string FmtRate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli;
  cli.AddBool("smoke", false,
              "tiny tenant count and request volume, skip the hit-rate "
              "assertion (CI correctness guard); zero-failure, hot-swap and "
              "reload bit-identity contracts still asserted");
  Status st = cli.Parse(argc, argv);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n" << cli.Usage(argv[0]);
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.Usage(argv[0]);
    return 0;
  }
  const bool smoke = cli.GetBool("smoke");

  const std::vector<int> tenant_counts =
      smoke ? std::vector<int>{16} : std::vector<int>{50, 100, 200};
  const int clients = 4;
  const int bursts_per_client = smoke ? 4 : 24;
  const int burst_len = smoke ? 16 : 64;
  const int max_tenants =
      *std::max_element(tenant_counts.begin(), tenant_counts.end());

  std::cout << "=== Multi-tenant serving: " << max_tenants << " adapters, "
            << kResidencyBudget << "-adapter residency budget, Zipf(1.0) "
            << "bursts ===\n\n"
            << "hardware threads: " << std::thread::hardware_concurrency()
            << (smoke ? " (smoke mode)" : "") << "\n\n";

  std::filesystem::create_directories(kCheckpointDir);
  for (int i = 0; i < max_tenants; ++i) WriteCheckpoint(i, /*version=*/1);

  // --- Residency sweep ------------------------------------------------------
  std::vector<TrafficResult> sweep;
  bool zero_failures = true;
  for (int tenants : tenant_counts) {
    TrafficResult row =
        RunSweepRow(tenants, clients, bursts_per_client, burst_len);
    if (row.undefined_outputs > 0 || row.serve_stats.requests_failed > 0) {
      std::cerr << "FAIL: " << row.undefined_outputs << " undefined outputs, "
                << row.serve_stats.requests_failed << " failed requests at "
                << tenants << " tenants\n";
      zero_failures = false;
    }
    sweep.push_back(std::move(row));
  }

  TablePrinter table("Zipf(1.0) burst traffic vs adapter count (budget " +
                     std::to_string(kResidencyBudget) + ")");
  table.SetHeader({"adapters", "requests", "req/s", "hit rate", "loads",
                   "evictions", "p50 us", "p99 us", "failed"});
  for (const TrafficResult& r : sweep) {
    table.AddRow(
        {std::to_string(r.tenants), std::to_string(r.requests),
         Fmt(static_cast<double>(r.requests) / r.elapsed_s),
         FmtRate(r.registry_stats.ResidencyHitRate()),
         std::to_string(r.registry_stats.loads),
         std::to_string(r.registry_stats.evictions), Fmt(r.p50_us),
         Fmt(r.p99_us), std::to_string(r.serve_stats.requests_failed)});
  }
  table.Print(std::cout);

  const double largest_hit_rate =
      sweep.back().registry_stats.ResidencyHitRate();
  bool hit_rate_ok = true;
  if (!smoke && largest_hit_rate < 0.90) {
    std::cout << "FAIL: residency hit-rate " << FmtRate(largest_hit_rate)
              << " at " << max_tenants << " adapters, expected >= 0.90\n";
    hit_rate_ok = false;
  }

  // --- Hot-swap under traffic ----------------------------------------------
  // The hottest tenant (Zipf rank 0) gets a retrained v2 published while
  // burst traffic is in flight. Nothing may fail, and once Publish returns,
  // served outputs must be the new version's bytes.
  const int swap_tenants = smoke ? 8 : 64;
  WriteCheckpoint(0, /*version=*/2);
  bool swap_ok = true;
  {
    serve::AdapterRegistryOptions ropts;
    ropts.residency_budget = kResidencyBudget;
    serve::AdapterRegistry registry(ropts);
    serve::ShardRouterOptions sopts;
    sopts.num_shards = 2;
    sopts.server_options.num_workers = 2;
    sopts.server_options.queue_capacity = 256;
    serve::ShardRouter router(sopts, &registry);
    for (int i = 0; i < swap_tenants; ++i) {
      Status rs = registry.Register(TenantName(i), TenantSpec(i),
                                    CheckpointPath(i, 1));
      if (rs.ok()) rs = router.RegisterTenant(TenantName(i));
      if (!rs.ok()) {
        std::cerr << "FATAL: " << rs.ToString() << "\n";
        return 2;
      }
    }
    router.Start();
    // Warm the hottest tenant so the publish below swaps a resident,
    // in-service instance rather than cold-installing.
    if (!registry.Acquire(TenantName(0)).ok()) {
      std::cerr << "FATAL: warm-up Acquire failed\n";
      return 2;
    }

    const std::vector<double> cdf = ZipfCdf(swap_tenants);
    const int swap_bursts = smoke ? 4 : 12;
    std::vector<std::thread> threads;
    std::vector<std::future<Tensor>> futures(
        static_cast<size_t>(clients * swap_bursts * burst_len));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(9900 + static_cast<uint64_t>(c));
        int64_t id = static_cast<int64_t>(c) * swap_bursts * burst_len;
        for (int b = 0; b < swap_bursts; ++b) {
          const std::string tenant = TenantName(DrawZipf(cdf, rng));
          for (int r = 0; r < burst_len; ++r, ++id) {
            auto submitted = router.Submit(tenant, RequestFeatures(id),
                                           RequestInput(id));
            if (submitted.ok()) {
              futures[static_cast<size_t>(id)] = std::move(submitted).value();
            }
          }
        }
      });
    }
    // Mid-traffic publish of the hottest tenant's retrained weights.
    const Status pub = registry.Publish(TenantName(0), CheckpointPath(0, 2));
    if (!pub.ok()) {
      std::cerr << "FAIL: publish during traffic: " << pub.ToString() << "\n";
      swap_ok = false;
    }
    for (auto& t : threads) t.join();
    for (auto& f : futures) {
      if (!f.valid() || !f.get().defined()) {
        swap_ok = false;
      }
    }
    // Post-swap probe: the served bytes must be the new checkpoint's.
    const int64_t probe_id = 999983;
    auto probe = router.Submit(TenantName(0), RequestFeatures(probe_id),
                               RequestInput(probe_id));
    const Tensor served = probe.ok() ? std::move(probe).value().get()
                                     : Tensor();
    const Tensor expected = OfflineForward(*LoadedTwin(0, 2), probe_id);
    if (!BitIdentical(served, expected)) {
      std::cerr << "FAIL: post-swap output is not the new version's bytes\n";
      swap_ok = false;
    }
    router.Shutdown();
    if (router.aggregated_stats().requests_failed > 0) {
      std::cerr << "FAIL: " << router.aggregated_stats().requests_failed
                << " requests failed during the hot-swap scenario\n";
      swap_ok = false;
    }
    const uint64_t v = registry.CurrentVersion(TenantName(0)).value();
    if (v != 2) {
      std::cerr << "FAIL: expected version 2 after publish, got " << v << "\n";
      swap_ok = false;
    }
    std::cout << "\nhot-swap under traffic: "
              << (swap_ok ? "zero failures, post-swap bytes match v2"
                          : "FAILED")
              << " (swaps=" << registry.stats().swaps << ")\n";
  }

  // --- Evict / reload bit-identity -----------------------------------------
  bool reload_ok = true;
  {
    serve::AdapterRegistry registry(serve::AdapterRegistryOptions{});
    if (!registry.Register(TenantName(3), TenantSpec(3), CheckpointPath(3, 1))
             .ok()) {
      std::cerr << "FATAL: reload-scenario Register failed\n";
      return 2;
    }
    const int64_t probe_id = 424243;
    auto first = registry.Acquire(TenantName(3));
    const Tensor before = OfflineForward(*first.value()->adapter, probe_id);
    if (!registry.Evict(TenantName(3)).ok()) {
      std::cerr << "FATAL: reload-scenario Evict failed\n";
      return 2;
    }
    auto second = registry.Acquire(TenantName(3));
    const Tensor after = OfflineForward(*second.value()->adapter, probe_id);
    reload_ok = BitIdentical(before, after);
    std::cout << "evict + reload: "
              << (reload_ok ? "bit-identical to never-evicted"
                            : "FAILED: bytes diverged")
              << "\n";
  }

  const bool ok = zero_failures && hit_rate_ok && swap_ok && reload_ok;
  if (ok) {
    std::cout << "OK: zero failed requests, hot-swap and reload contracts "
                 "hold"
              << (smoke ? " (hit-rate assertion skipped in smoke mode)"
                        : ", hit-rate >= 0.90 at " +
                              std::to_string(max_tenants) + " adapters")
              << "\n";
  }

  // Smoke mode shrinks traffic until rates/latencies are noise and the tiny
  // tenant count keeps everything resident, so the hit-rate is not the
  // measured sweep quantity either: emit null for all of them rather than
  // real-looking numbers. The raw counters stay — they are exact.
  auto measured_or_null = [smoke](double v) {
    return smoke ? std::string("null") : std::to_string(v);
  };
  std::ofstream json("BENCH_multi_tenant.json");
  json << "{\n  \"residency_budget\": " << kResidencyBudget << ",\n"
       << "  \"clients\": " << clients << ",\n"
       << "  \"burst_len\": " << burst_len << ",\n"
       << "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const TrafficResult& r = sweep[i];
    json << "    {\"adapters\": " << r.tenants
         << ", \"requests\": " << r.requests
         << ", \"throughput_rps\": "
         << measured_or_null(static_cast<double>(r.requests) / r.elapsed_s)
         << ", \"residency_hit_rate\": "
         << measured_or_null(r.registry_stats.ResidencyHitRate())
         << ", \"request_hits\": " << r.registry_stats.request_hits
         << ", \"request_misses\": " << r.registry_stats.request_misses
         << ", \"loads\": " << r.registry_stats.loads
         << ", \"evictions\": " << r.registry_stats.evictions
         << ", \"resident\": " << r.registry_stats.resident
         << ", \"p50_us\": " << measured_or_null(r.p50_us)
         << ", \"p99_us\": " << measured_or_null(r.p99_us)
         << ", \"requests_failed\": " << r.serve_stats.requests_failed << "}"
         << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"hot_swap\": {\"tenants\": " << swap_tenants
       << ", \"zero_failures_and_v2_bytes\": " << (swap_ok ? "true" : "false")
       << "},\n"
       << "  \"evict_reload_bit_identical\": " << (reload_ok ? "true" : "false")
       << ",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"ok\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote BENCH_multi_tenant.json\n";
  return ok ? 0 : 1;
}
