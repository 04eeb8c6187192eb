// AdapterServer throughput: batched micro-batching vs one-at-a-time
// serving under simulated client load.
//
// Scenario: a mapping-dominated MetaLoRA-CP linear adapter (conditioning
// net 256 -> 512 -> R dwarfs the 64x64 base layer) served in-process.
// N client threads each submit a stream of single-row requests and block
// on the returned futures. Two serving modes:
//
//   serial  — max_batch_size=1: every request runs its own forward
//             (one-at-a-time baseline; the queue plumbing is identical).
//   batched — max_batch_size=8: the micro-batcher coalesces concurrent
//             requests into one forward over the concatenated rows.
//
// Contracts asserted here, not just reported:
//   1. Bit-identity (always, including --smoke): every served output is
//      byte-identical to a one-at-a-time no-grad forward on a twin adapter
//      *under the same autocast policy* — batching must never change bytes,
//      at any precision. (Low-precision GEMMs process activation rows
//      independently — per-row int8 scales, row-local bf16 chains — which
//      is what makes this assertable.)
//   2. Accuracy envelope (--precision=bf16|int8 only): the low-precision
//      one-at-a-time reference must stay within a lenient relative error
//      of the fp32 reference (bf16 <= 0.1, int8 <= 0.5); the measured max
//      is printed and exported.
//   3. Throughput (skipped under --smoke so weak CI runners don't flake):
//      batched >= 2x serial at 8 clients.
//
// `--precision=fp32|bf16|int8` wires AutocastPolicy::Serving(p) into the
// server worker contexts and registers quantized shadows on the adapter at
// load (the AdapterRegistry::Publish analogue for this in-process setup).
// fp32 is the default and exercises the identical code path as no flag.
//
// Writes BENCH_serving.json (throughput + p50/p99 latency per client
// count, batch-size distribution, per-precision GEMM dispatch counts);
// exits nonzero if any contract fails.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
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
#include "core/precision_shadows.h"
#include "serve/adapter_server.h"
#include "tensor/autocast.h"
#include "tensor/lowp.h"
#include "tensor/random_init.h"

using namespace metalora;  // NOLINT

namespace {

constexpr int64_t kFeatureDim = 256;
constexpr int64_t kMappingHidden = 512;
constexpr int64_t kBaseDim = 64;

std::unique_ptr<core::Adapter> MakeAdapter() {
  core::AdapterSpec spec = core::LinearAdapterSpec(
      core::AdapterKind::kMetaLoraCp, kBaseDim, kBaseDim, /*rank=*/8,
      kFeatureDim, /*seed=*/29);
  spec.options.mapping_hidden = kMappingHidden;
  auto built = core::BuildAdapter(spec);
  ML_CHECK(built.ok()) << built.status().ToString();
  std::unique_ptr<core::Adapter> adapter = std::move(built).value();
  Rng brng(5);
  for (auto& np : adapter->NamedParameters()) {
    if (np.name == "lora_b") {
      FillNormal(np.variable->mutable_value(), brng, 0.0f, 0.05f);
    }
  }
  return adapter;
}

/// Deterministic request stream: request r maps to a unique (features, x)
/// pair, so both serving modes and the serial reference see identical
/// inputs.
Tensor RequestFeatures(int64_t r) {
  Rng rng(10000 + static_cast<uint64_t>(r) * 2);
  return RandomNormal(Shape{1, kFeatureDim}, rng);
}

Tensor RequestInput(int64_t r) {
  Rng rng(10001 + static_cast<uint64_t>(r) * 2);
  return RandomNormal(Shape{1, kBaseDim}, rng);
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

struct ScenarioResult {
  std::string mode;
  int clients = 0;
  int64_t requests = 0;
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
  serve::ServeStats stats;
  std::vector<Tensor> outputs;  // indexed by request id
};

/// Runs `clients` threads, each submitting `per_client` requests against a
/// fresh adapter + server, and blocks until every future resolves. When
/// `policy` enables a low-precision tier, quantized shadows are registered
/// on the fresh adapter first (quantize-once-at-load, never per request).
ScenarioResult RunScenario(const std::string& mode, int clients,
                           int per_client, int64_t max_batch_size,
                           const AutocastPolicy& policy) {
  auto adapter = MakeAdapter();
  std::vector<lowp::ShadowHandle> shadows;
  if (policy.enabled) shadows = core::RegisterModuleShadows(*adapter);
  serve::AdapterServerOptions opts;
  opts.autocast = policy;
  opts.max_batch_size = max_batch_size;
  opts.flush_deadline_us = 500;
  opts.num_workers = 2;
  opts.queue_capacity = 256;
  serve::AdapterServer server(opts);
  const int sid =
      server.RegisterSession(adapter.get(), adapter->conditioning_cache());
  server.Start();

  const int64_t total = static_cast<int64_t>(clients) * per_client;
  std::vector<std::future<Tensor>> futures(static_cast<size_t>(total));
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        const int64_t id = static_cast<int64_t>(c) * per_client + i;
        futures[static_cast<size_t>(id)] =
            server.Submit(sid, RequestFeatures(id), RequestInput(id));
      }
    });
  }
  for (auto& t : threads) t.join();

  ScenarioResult res;
  res.outputs.resize(static_cast<size_t>(total));
  for (int64_t id = 0; id < total; ++id) {
    res.outputs[static_cast<size_t>(id)] =
        futures[static_cast<size_t>(id)].get();
  }
  const double elapsed_s = timer.Seconds();
  server.Shutdown();

  res.mode = mode;
  res.clients = clients;
  res.requests = total;
  res.throughput_rps = static_cast<double>(total) / elapsed_s;
  res.stats = server.stats();
  res.p50_us = res.stats.LatencyPercentileUs(50);
  res.p99_us = res.stats.LatencyPercentileUs(99);
  res.mean_batch = res.stats.MeanBatchSize();
  return res;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli;
  cli.AddBool("smoke", false,
              "small request counts, skip throughput assertions (CI "
              "correctness guard on weak runners); bit-identity still "
              "asserted");
  cli.AddString("precision", "fp32",
                "serving GEMM tier: fp32 | bf16 | int8 (wires "
                "AutocastPolicy::Serving into the worker contexts)");
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
  OpPrecision precision = OpPrecision::kFp32;
  if (!ParseOpPrecision(cli.GetString("precision"), &precision)) {
    std::cerr << "unknown --precision value '" << cli.GetString("precision")
              << "' (want fp32 | bf16 | int8)\n";
    return 2;
  }
  const AutocastPolicy policy = AutocastPolicy::Serving(precision);
  const int per_client = smoke ? 8 : 64;
  const std::vector<int> client_counts =
      smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 4, 8};

  std::cout << "=== AdapterServer: batched vs one-at-a-time serving ===\n\n"
            << "hardware threads: " << std::thread::hardware_concurrency()
            << " | precision: " << OpPrecisionName(precision)
            << (smoke ? " (smoke mode)" : "") << "\n\n";

  // Serial reference outputs, computed once on a twin adapter: the batched
  // server must reproduce these bytes exactly regardless of how requests
  // got coalesced. The reference runs under the same autocast policy as the servers (with its
  // own shadows registered), so bit-identity is asserted per tier; an fp32
  // reference is kept alongside to measure the low-precision error.
  const int max_clients = *std::max_element(client_counts.begin(),
                                            client_counts.end());
  const int64_t max_requests =
      static_cast<int64_t>(max_clients) * per_client;
  auto ref_adapter = MakeAdapter();
  std::vector<lowp::ShadowHandle> ref_shadows;
  if (policy.enabled) {
    ref_shadows = core::RegisterModuleShadows(*ref_adapter);
  }
  std::vector<Tensor> reference(static_cast<size_t>(max_requests));
  std::vector<Tensor> reference_fp32(static_cast<size_t>(max_requests));
  {
    autograd::NoGradGuard ng;
    autograd::RuntimeContext& ctx = autograd::RuntimeContext::Current();
    const AutocastPolicy saved_policy = ctx.autocast();
    for (int pass = 0; pass < (policy.enabled ? 2 : 1); ++pass) {
      // Pass 0: fp32. Pass 1 (low precision only): the serving policy.
      ctx.set_autocast(pass == 0 ? AutocastPolicy::Disabled() : policy);
      std::vector<Tensor>& dst = pass == 0 && policy.enabled
                                     ? reference_fp32
                                     : reference;
      for (int64_t r = 0; r < max_requests; ++r) {
        ref_adapter->SetFeatures(
            autograd::Variable(RequestFeatures(r), /*requires_grad=*/false));
        dst[static_cast<size_t>(r)] =
            ref_adapter
                ->Forward(autograd::Variable(RequestInput(r),
                                             /*requires_grad=*/false))
                .value()
                .Clone();
        // The reference is one-at-a-time by construction: clear the seed
        // cache so every forward is cold.
        ref_adapter->conditioning_cache()->Clear();
      }
    }
    ctx.set_autocast(saved_policy);
  }

  // Accuracy envelope: worst absolute deviation from the fp32 reference,
  // normalized by that request's output magnitude (max-abs). Element-wise
  // relative error is the wrong metric here — near-zero outputs from
  // cancellation make the ratio meaningless at any precision.
  double max_rel_err = 0.0;
  if (policy.enabled) {
    for (int64_t r = 0; r < max_requests; ++r) {
      const Tensor& lo = reference[static_cast<size_t>(r)];
      const Tensor& hi = reference_fp32[static_cast<size_t>(r)];
      double max_abs = 0.0, max_diff = 0.0;
      for (int64_t i = 0; i < lo.numel(); ++i) {
        max_abs = std::max(max_abs,
                           std::fabs(static_cast<double>(hi.data()[i])));
        max_diff = std::max(
            max_diff,
            std::fabs(static_cast<double>(lo.data()[i]) - hi.data()[i]));
      }
      max_rel_err = std::max(max_rel_err, max_diff / std::max(max_abs, 1e-3));
    }
    std::cout << "max error vs fp32 reference (relative to output "
              << "magnitude): " << max_rel_err << "\n\n";
  }

  // Sweep client counts in both modes. Every request is unique, so the
  // comparison isolates the micro-batching win.
  std::vector<ScenarioResult> sweep;
  bool bit_identical = true;
  for (int clients : client_counts) {
    for (bool batched : {false, true}) {
      ScenarioResult r = RunScenario(batched ? "batched" : "serial", clients,
                                     per_client,
                                     /*max_batch_size=*/batched ? 8 : 1,
                                     policy);
      for (int64_t id = 0; id < r.requests; ++id) {
        if (!BitIdentical(r.outputs[static_cast<size_t>(id)],
                          reference[static_cast<size_t>(id)])) {
          std::cerr << "FAIL: " << r.mode << " output " << id << " at "
                    << clients << " clients diverged from the one-at-a-time "
                    << "reference\n";
          bit_identical = false;
        }
      }
      sweep.push_back(std::move(r));
    }
  }

  TablePrinter table("serving throughput (unique requests)");
  table.SetHeader({"clients", "mode", "req/s", "p50 us", "p99 us",
                   "mean batch"});
  double serial_8c = 0.0, batched_8c = 0.0;
  for (const ScenarioResult& r : sweep) {
    table.AddRow({std::to_string(r.clients), r.mode, Fmt(r.throughput_rps),
                  Fmt(r.p50_us), Fmt(r.p99_us), Fmt(r.mean_batch)});
    if (r.clients == 8) {
      (r.mode == "batched" ? batched_8c : serial_8c) = r.throughput_rps;
    }
  }
  table.Print(std::cout);
  const double batch_speedup =
      serial_8c > 0.0 ? batched_8c / serial_8c : 0.0;
  if (!smoke) {
    std::cout << "\nbatched vs serial at 8 clients: " << Fmt(batch_speedup)
              << "x\n";
  }

  bool ok = bit_identical;
  if (!bit_identical) {
    std::cout << "FAIL: served outputs not bit-identical to one-at-a-time "
                 "forwards\n";
  }
  // Lenient tier-specific error envelopes: this adapter's outputs are
  // O(1)-scale, so these bound gross quantization bugs (wrong scale, wrong
  // channel) without flaking on legitimate rounding.
  const double rel_err_bound = precision == OpPrecision::kInt8 ? 0.5 : 0.1;
  if (policy.enabled && max_rel_err > rel_err_bound) {
    std::cout << "FAIL: " << OpPrecisionName(precision)
              << " reference max relative error " << max_rel_err
              << " vs fp32, expected <= " << rel_err_bound << "\n";
    ok = false;
  }
  if (!smoke && batch_speedup < 2.0) {
    std::cout << "FAIL: batched serving " << Fmt(batch_speedup)
              << "x serial at 8 clients, expected >= 2x\n";
    ok = false;
  }
  if (ok) {
    std::cout << "OK: bit-identical"
              << (smoke ? " (throughput assertions skipped in smoke mode)"
                        : ", batched >= 2x serial")
              << "\n";
  }

  std::ofstream json("BENCH_serving.json");
  json << "{\n  \"precision\": \"" << OpPrecisionName(precision) << "\",\n"
       << "  \"scenarios\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const ScenarioResult& r = sweep[i];
    json << "    {\"clients\": " << r.clients << ", \"mode\": \"" << r.mode
         << "\", \"precision\": \"" << OpPrecisionName(precision)
         << "\", \"requests\": " << r.requests
         << ", \"throughput_rps\": " << r.throughput_rps
         << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
         << ", \"mean_batch_size\": " << r.mean_batch
         << ", \"size_flushes\": " << r.stats.size_flushes
         << ", \"deadline_flushes\": " << r.stats.deadline_flushes
         << ", \"gemm_dispatch\": {\"fp32\": " << r.stats.gemm_dispatch[0]
         << ", \"bf16\": " << r.stats.gemm_dispatch[1]
         << ", \"int8\": " << r.stats.gemm_dispatch[2] << "}}"
         << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"max_rel_err_vs_fp32\": " << max_rel_err << ",\n"
       << "  \"batched_vs_serial_speedup_8c\": ";
  // The 8-client scenario only runs off smoke; emit null, not a bogus 0,
  // when it didn't.
  if (serial_8c > 0.0) {
    json << batch_speedup;
  } else {
    json << "null";
  }
  json << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
       << ",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"ok\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote BENCH_serving.json\n";
  return ok ? 0 : 1;
}
