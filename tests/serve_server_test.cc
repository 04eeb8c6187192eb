// AdapterServer contract tests: batched execution must be bit-identical to
// one-at-a-time forwards for every MetaLoRA adapter kind, backpressure must
// bound the queue without losing accepted requests, and shutdown must drain
// every in-flight request. The threaded tests double as TSan coverage (this
// binary runs under the thread-sanitizer CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "autograd/graph.h"
#include "autograd/ops.h"
#include "autograd/runtime_context.h"
#include "autograd/variable.h"
#include "common/bounded_queue.h"
#include "common/rng.h"
#include "core/tn_adapter.h"
#include "eval/batch_assembly.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "optim/adam.h"
#include "serve/adapter_server.h"
#include "tensor/random_init.h"

namespace metalora {
namespace serve {
namespace {

using autograd::Variable;
using core::AdapterKind;
using core::AdapterOptions;

constexpr int64_t kFeatDim = 10;
constexpr int64_t kLinearIn = 5;

AdapterOptions MetaOpts(AdapterKind kind) {
  AdapterOptions o;
  o.kind = kind;
  o.rank = 3;
  o.alpha = 3.0f;
  o.feature_dim = kFeatDim;
  o.mapping_hidden = 8;
  o.seed = 11;
  return o;
}

std::unique_ptr<nn::Linear> BaseLinear() {
  Rng rng(2);
  return std::make_unique<nn::Linear>(kLinearIn, 4, true, rng);
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

Tensor RandFeatures(int64_t n, uint64_t seed) {
  Rng rng(seed);
  return RandomUniform(Shape{n, kFeatDim}, rng, -1.0f, 1.0f);
}

Tensor RandLinearInput(int64_t n, uint64_t seed) {
  Rng rng(seed);
  return RandomUniform(Shape{n, kLinearIn}, rng, -1.0f, 1.0f);
}

Tensor RandConvInput(int64_t n, uint64_t seed) {
  Rng rng(seed);
  return RandomUniform(Shape{n, 2, 5, 5}, rng, -1.0f, 1.0f);
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.defined());
  ASSERT_TRUE(b.defined());
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.numel())),
            0);
}

/// One-at-a-time reference: SetFeatures + Forward per request in no-grad
/// mode, on a *separate but identically constructed* adapter instance.
Tensor SerialForward(core::Adapter& adapter, const Tensor& features,
                     const Tensor& x) {
  autograd::NoGradGuard ng;
  adapter.SetFeatures(Variable(features, /*requires_grad=*/false));
  return adapter.Forward(Variable(x, /*requires_grad=*/false)).value();
}

TEST(BatchAssembly, ConcatSplitRoundTrip) {
  std::vector<Tensor> parts = {RandLinearInput(1, 1), RandLinearInput(3, 2),
                               RandLinearInput(2, 3)};
  Tensor batch = eval::ConcatRows(parts);
  EXPECT_EQ(batch.dim(0), 6);
  std::vector<Tensor> back = eval::SplitRows(batch, {1, 3, 2});
  ASSERT_EQ(back.size(), parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    ExpectBitIdentical(parts[i], back[i]);
  }
}

TEST(BatchAssembly, ConcatSplitRoundTrip4d) {
  std::vector<Tensor> parts = {RandConvInput(2, 4), RandConvInput(1, 5)};
  Tensor batch = eval::ConcatRows(parts);
  EXPECT_EQ(batch.dim(0), 3);
  EXPECT_EQ(batch.rank(), 4);
  std::vector<Tensor> back = eval::SplitRows(batch, {2, 1});
  for (size_t i = 0; i < parts.size(); ++i) {
    ExpectBitIdentical(parts[i], back[i]);
  }
}

// Every adapter kind, 8 client threads, batched results must be
// byte-identical to one-at-a-time forwards on a twin adapter.
TEST(AdapterServer, BatchedMatchesSerialBitIdentical) {
  // Served instances.
  core::TnAdapter cp_lin(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  core::TnAdapter tr_lin(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraTr));
  core::TnAdapter cp_conv(BaseConv(), MetaOpts(AdapterKind::kMetaLoraCp));
  core::TnAdapter tr_conv(BaseConv(), MetaOpts(AdapterKind::kMetaLoraTr));
  // Twin instances for the serial reference (identical construction).
  core::TnAdapter cp_lin_ref(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  core::TnAdapter tr_lin_ref(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraTr));
  core::TnAdapter cp_conv_ref(BaseConv(), MetaOpts(AdapterKind::kMetaLoraCp));
  core::TnAdapter tr_conv_ref(BaseConv(), MetaOpts(AdapterKind::kMetaLoraTr));
  for (auto* m : std::initializer_list<nn::Module*>{&cp_lin, &cp_lin_ref}) {
    RandomizeFactors(*m, 21);
  }
  for (auto* m : std::initializer_list<nn::Module*>{&tr_lin, &tr_lin_ref}) {
    RandomizeFactors(*m, 22);
  }
  for (auto* m : std::initializer_list<nn::Module*>{&cp_conv, &cp_conv_ref}) {
    RandomizeFactors(*m, 23);
  }
  for (auto* m : std::initializer_list<nn::Module*>{&tr_conv, &tr_conv_ref}) {
    RandomizeFactors(*m, 24);
  }

  AdapterServerOptions opts;
  opts.max_batch_size = 4;
  opts.flush_deadline_us = 500;
  opts.num_workers = 3;
  AdapterServer server(opts);
  const int cp_lin_id =
      server.RegisterSession(&cp_lin, cp_lin.conditioning_cache());
  const int tr_lin_id =
      server.RegisterSession(&tr_lin, tr_lin.conditioning_cache());
  const int cp_conv_id =
      server.RegisterSession(&cp_conv, cp_conv.conditioning_cache());
  const int tr_conv_id =
      server.RegisterSession(&tr_conv, tr_conv.conditioning_cache());
  server.Start();

  struct Expected {
    std::future<Tensor> got;
    Tensor want;
  };
  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  std::vector<std::vector<Expected>> per_client(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const uint64_t seed = 1000 + static_cast<uint64_t>(c * kPerClient + i);
        const Tensor f = RandFeatures(1, seed);
        Expected e;
        switch (i % 4) {
          case 0:
            e.got = server.Submit(cp_lin_id, f, RandLinearInput(1, seed + 1));
            break;
          case 1:
            e.got = server.Submit(tr_lin_id, f, RandLinearInput(1, seed + 1));
            break;
          case 2:
            e.got = server.Submit(cp_conv_id, f, RandConvInput(1, seed + 1));
            break;
          default:
            e.got = server.Submit(tr_conv_id, f, RandConvInput(1, seed + 1));
            break;
        }
        per_client[static_cast<size_t>(c)].push_back(std::move(e));
      }
    });
  }
  for (auto& t : clients) t.join();

  // Serial references, computed after all submits so the server's batch
  // compositions are whatever the batcher coalesced.
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const uint64_t seed = 1000 + static_cast<uint64_t>(c * kPerClient + i);
      const Tensor f = RandFeatures(1, seed);
      Expected& e = per_client[static_cast<size_t>(c)][static_cast<size_t>(i)];
      switch (i % 4) {
        case 0:
          e.want = SerialForward(cp_lin_ref, f, RandLinearInput(1, seed + 1));
          break;
        case 1:
          e.want = SerialForward(tr_lin_ref, f, RandLinearInput(1, seed + 1));
          break;
        case 2:
          e.want = SerialForward(cp_conv_ref, f, RandConvInput(1, seed + 1));
          break;
        default:
          e.want = SerialForward(tr_conv_ref, f, RandConvInput(1, seed + 1));
          break;
      }
    }
  }

  for (auto& client : per_client) {
    for (Expected& e : client) {
      ExpectBitIdentical(e.got.get(), e.want);
    }
  }
  server.Shutdown();

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests_completed, kClients * kPerClient);
  EXPECT_EQ(stats.requests_rejected, 0);
  EXPECT_GT(stats.batches_executed, 0);
  EXPECT_EQ(stats.batched_rows, kClients * kPerClient);
}

/// LoTR starts with a zero core, TT with a zero output core; perturb them
/// so batched-vs-serial differences cannot hide behind ΔW = 0.
void RandomizeNewFamilyCores(nn::Module& m, uint64_t seed) {
  Rng rng(seed);
  for (auto& np : m.NamedParameters()) {
    if (np.name == "lotr_core" || np.name == "tt_out_b" ||
        np.name == "tt_out") {
      FillNormal(np.variable->mutable_value(), rng, 0.0f, 0.5f);
    }
  }
}

// Same contract for the shared-core and tensor-train families: batched
// results byte-identical to one-at-a-time forwards on twin instances. The
// meta variants exercise per-sample seeds through the batcher; the plain
// variants prove unconditioned adapters batch transparently too.
TEST(AdapterServer, NewFamiliesBatchedMatchesSerialBitIdentical) {
  core::TnAdapter lotr_lin(BaseLinear(), MetaOpts(AdapterKind::kMetaLotr));
  core::TnAdapter lotr_conv(BaseConv(), MetaOpts(AdapterKind::kLotr));
  core::TnAdapter tt_lin(BaseLinear(), MetaOpts(AdapterKind::kTt));
  core::TnAdapter tt_conv(BaseConv(), MetaOpts(AdapterKind::kMetaTt));
  core::TnAdapter lotr_lin_ref(BaseLinear(), MetaOpts(AdapterKind::kMetaLotr));
  core::TnAdapter lotr_conv_ref(BaseConv(), MetaOpts(AdapterKind::kLotr));
  core::TnAdapter tt_lin_ref(BaseLinear(), MetaOpts(AdapterKind::kTt));
  core::TnAdapter tt_conv_ref(BaseConv(), MetaOpts(AdapterKind::kMetaTt));
  RandomizeNewFamilyCores(lotr_lin, 31);
  RandomizeNewFamilyCores(lotr_lin_ref, 31);
  RandomizeNewFamilyCores(lotr_conv, 32);
  RandomizeNewFamilyCores(lotr_conv_ref, 32);
  RandomizeNewFamilyCores(tt_lin, 33);
  RandomizeNewFamilyCores(tt_lin_ref, 33);
  RandomizeNewFamilyCores(tt_conv, 34);
  RandomizeNewFamilyCores(tt_conv_ref, 34);

  AdapterServerOptions opts;
  opts.max_batch_size = 4;
  opts.flush_deadline_us = 500;
  opts.num_workers = 3;
  AdapterServer server(opts);
  const int lotr_lin_id =
      server.RegisterSession(&lotr_lin, lotr_lin.conditioning_cache());
  const int lotr_conv_id =
      server.RegisterSession(&lotr_conv, lotr_conv.conditioning_cache());
  const int tt_lin_id =
      server.RegisterSession(&tt_lin, tt_lin.conditioning_cache());
  const int tt_conv_id =
      server.RegisterSession(&tt_conv, tt_conv.conditioning_cache());
  server.Start();

  struct Expected {
    std::future<Tensor> got;
    Tensor want;
  };
  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<std::vector<Expected>> per_client(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const uint64_t seed = 3000 + static_cast<uint64_t>(c * kPerClient + i);
        const Tensor f = RandFeatures(1, seed);
        Expected e;
        switch (i % 4) {
          case 0:
            e.got = server.Submit(lotr_lin_id, f, RandLinearInput(1, seed + 1));
            break;
          case 1:
            e.got = server.Submit(lotr_conv_id, f, RandConvInput(1, seed + 1));
            break;
          case 2:
            e.got = server.Submit(tt_lin_id, f, RandLinearInput(1, seed + 1));
            break;
          default:
            e.got = server.Submit(tt_conv_id, f, RandConvInput(1, seed + 1));
            break;
        }
        per_client[static_cast<size_t>(c)].push_back(std::move(e));
      }
    });
  }
  for (auto& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const uint64_t seed = 3000 + static_cast<uint64_t>(c * kPerClient + i);
      const Tensor f = RandFeatures(1, seed);
      Expected& e = per_client[static_cast<size_t>(c)][static_cast<size_t>(i)];
      switch (i % 4) {
        case 0:
          e.want = SerialForward(lotr_lin_ref, f, RandLinearInput(1, seed + 1));
          break;
        case 1:
          e.want = SerialForward(lotr_conv_ref, f, RandConvInput(1, seed + 1));
          break;
        case 2:
          e.want = SerialForward(tt_lin_ref, f, RandLinearInput(1, seed + 1));
          break;
        default:
          e.want = SerialForward(tt_conv_ref, f, RandConvInput(1, seed + 1));
          break;
      }
    }
  }

  for (auto& client : per_client) {
    for (Expected& e : client) {
      ExpectBitIdentical(e.got.get(), e.want);
    }
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_completed, kClients * kPerClient);
  EXPECT_EQ(server.stats().requests_failed, 0);
}

// ServeStats::gemm_dispatch: every worker GEMM lands in slot 0, and slots
// 1 and 2, which exist only for the end-to-end benchmark's
// tensor.gemm.dispatch.{bf16,int8} metrics, stay 0.
TEST(AdapterServer, GemmDispatchesLandInTheFp32Slot) {
  core::TnAdapter served(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  RandomizeFactors(served, 61);
  served.SetTraining(false);
  AdapterServerOptions opts;
  opts.max_batch_size = 4;
  opts.flush_deadline_us = 500;
  opts.num_workers = 2;
  AdapterServer server(opts);
  const int sid = server.RegisterSession(&served, served.conditioning_cache());
  server.Start();
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 12; ++i) {
    const uint64_t seed = 7000 + static_cast<uint64_t>(i);
    futures.push_back(server.Submit(sid, RandFeatures(1, seed),
                                    RandLinearInput(1, seed + 1)));
  }
  for (auto& f : futures) f.get();
  server.Shutdown();

  const ServeStats stats = server.stats();
  EXPECT_GT(stats.batches_executed, 0);
  EXPECT_GE(stats.gemm_dispatch[0], stats.batches_executed);
  EXPECT_EQ(stats.gemm_dispatch[1], 0);
  EXPECT_EQ(stats.gemm_dispatch[2], 0);
}

// A family with no conditioning cache (MoE routes through a per-row gate
// softmax) and requests carrying more than one row: each shape, repeated,
// is served byte-identical to one-at-a-time forwards on a twin.
TEST(AdapterServer, MoeAndMultiRowRequestsMatchSerial) {
  AdapterOptions moe_opts = MetaOpts(AdapterKind::kMoeLora);
  moe_opts.num_tasks = 2;
  core::TnAdapter adapter(BaseLinear(), moe_opts);
  core::TnAdapter twin(BaseLinear(), moe_opts);
  // The per-expert up-projections (lora_b0, lora_b1) start at zero.
  for (nn::Module* m : {static_cast<nn::Module*>(&adapter),
                        static_cast<nn::Module*>(&twin)}) {
    Rng rng(101);
    for (auto& np : m->NamedParameters()) {
      if (np.name.rfind("lora_b", 0) == 0) {
        FillNormal(np.variable->mutable_value(), rng, 0.0f, 0.5f);
      }
    }
  }
  AdapterServer server(AdapterServerOptions{});
  const int sid = server.RegisterSession(&adapter);
  server.Start();

  for (int64_t rows : {1, 2}) {
    const Tensor f = RandFeatures(rows, 103);
    const Tensor x = RandLinearInput(rows, 104);
    const Tensor want = SerialForward(twin, f, x);
    for (int i = 0; i < 3; ++i) {
      ExpectBitIdentical(server.Submit(sid, f, x).get(), want);
    }
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_completed, 6);
}

// An optimizer Step() between two identical requests must change the served
// bytes: the adapter's conditioning cache entry from before the step is
// stale, so the repeat recomputes on the new weights instead of replaying
// the old ones. A twin adapter given the same step is the reference.
TEST(AdapterServer, OptimizerStepBetweenRepeatsChangesServedBytes) {
  core::TnAdapter adapter(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraTr));
  core::TnAdapter twin(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraTr));
  RandomizeFactors(adapter, 51);
  RandomizeFactors(twin, 51);
  AdapterServerOptions opts;
  opts.flush_deadline_us = 200;
  AdapterServer server(opts);
  const int sid = server.RegisterSession(&adapter, adapter.conditioning_cache());
  server.Start();

  const Tensor f = RandFeatures(1, 61);
  const Tensor x = RandLinearInput(1, 62);
  const Tensor cold = server.Submit(sid, f, x).get();
  const Tensor warm = server.Submit(sid, f, x).get();
  ExpectBitIdentical(cold, warm);
  ExpectBitIdentical(cold, SerialForward(twin, f, x));

  // The same training step on both instances; the server is idle here (every
  // submitted future has resolved), so the adapter is not mid-forward.
  for (core::TnAdapter* a : {&adapter, &twin}) {
    a->SetFeatures(Variable(f, /*requires_grad=*/false));
    Variable loss =
        autograd::SumAll(a->Forward(Variable(x, /*requires_grad=*/false)));
    a->ZeroGrad();
    ASSERT_TRUE(autograd::Backward(loss).ok());
    std::vector<Variable> params;
    for (Variable* p : a->TrainableParameters()) params.push_back(*p);
    optim::AdamOptions adam_opts;
    adam_opts.lr = 1e-2;
    optim::Adam adam(params, adam_opts);
    adam.Step();  // bumps the global parameter version
  }

  const Tensor after = server.Submit(sid, f, x).get();
  server.Shutdown();
  ASSERT_TRUE(after.defined());
  EXPECT_NE(std::memcmp(after.data(), cold.data(),
                        sizeof(float) * static_cast<size_t>(cold.numel())),
            0);
  ExpectBitIdentical(after, SerialForward(twin, f, x));
  EXPECT_GE(adapter.conditioning_cache()->stats().invalidations, 1);
}

// Tiny queues + a stalled worker: TrySubmit must start failing (bounded
// memory), Submit-ed requests must all still complete once the worker is
// released, and rejected requests must be counted.
TEST(AdapterServer, BackpressureBoundsQueueWithoutLosingRequests) {
  core::TnAdapter adapter(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  RandomizeFactors(adapter, 71);

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;

  AdapterServerOptions opts;
  opts.max_batch_size = 1;  // every request is its own batch
  opts.flush_deadline_us = 100;
  opts.num_workers = 1;
  opts.queue_capacity = 2;
  opts.batch_queue_capacity = 1;
  opts.worker_batch_hook = [&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  AdapterServer server(opts);
  const int sid = server.RegisterSession(&adapter, adapter.conditioning_cache());
  server.Start();

  std::vector<std::future<Tensor>> accepted;
  int rejected = 0;
  // With the worker gated, capacity is finite: request queue (2) + batch
  // queue (1) + what the batcher/worker hold. Keep trying until TrySubmit
  // fails several times in a row — the pipeline is saturated.
  int consecutive_failures = 0;
  uint64_t seed = 100;
  while (consecutive_failures < 3) {
    std::future<Tensor> fut;
    if (server.TrySubmit(sid, RandFeatures(1, seed), RandLinearInput(1, seed),
                         &fut)) {
      accepted.push_back(std::move(fut));
      consecutive_failures = 0;
    } else {
      ++consecutive_failures;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ++seed;
    ASSERT_LT(seed, 200u) << "pipeline never saturated under a gated worker";
    rejected = consecutive_failures;
  }
  EXPECT_GT(rejected, 0);
  // Bounded: accepted can't exceed the two queues plus the two threads'
  // in-hand items by much.
  EXPECT_LE(static_cast<int64_t>(accepted.size()),
            opts.queue_capacity + opts.batch_queue_capacity + 2);

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();

  for (auto& fut : accepted) {
    EXPECT_TRUE(fut.get().defined())
        << "an accepted request was dropped under backpressure";
  }
  server.Shutdown();
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests_completed,
            static_cast<int64_t>(accepted.size()));
  EXPECT_GT(stats.requests_rejected, 0);
  EXPECT_LE(stats.request_queue_peak, opts.queue_capacity);
  EXPECT_LE(stats.batch_queue_peak, opts.batch_queue_capacity);
}

// Shutdown with requests still queued and in flight: every accepted
// request's future resolves with real (correct) bytes — drain, not drop.
TEST(AdapterServer, ShutdownDrainsInFlightRequests) {
  core::TnAdapter adapter(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  core::TnAdapter ref(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  RandomizeFactors(adapter, 81);
  RandomizeFactors(ref, 81);

  AdapterServerOptions opts;
  opts.max_batch_size = 4;
  opts.num_workers = 2;
  opts.worker_batch_hook = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  };
  AdapterServer server(opts);
  const int sid = server.RegisterSession(&adapter, adapter.conditioning_cache());
  server.Start();

  constexpr int kRequests = 32;
  std::vector<std::future<Tensor>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    const uint64_t seed = 300 + static_cast<uint64_t>(i);
    futures.push_back(
        server.Submit(sid, RandFeatures(1, seed), RandLinearInput(1, seed + 1)));
  }
  server.Shutdown();  // most requests are still queued or in flight here

  for (int i = 0; i < kRequests; ++i) {
    const uint64_t seed = 300 + static_cast<uint64_t>(i);
    Tensor got = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(got.defined()) << "request " << i << " dropped during drain";
    Tensor want =
        SerialForward(ref, RandFeatures(1, seed), RandLinearInput(1, seed + 1));
    ExpectBitIdentical(got, want);
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests_completed, kRequests);
  EXPECT_EQ(stats.requests_rejected, 0);
}

TEST(AdapterServer, SubmitAfterShutdownResolvesUndefined) {
  core::TnAdapter adapter(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  AdapterServer server(AdapterServerOptions{});
  const int sid = server.RegisterSession(&adapter, adapter.conditioning_cache());
  server.Start();
  server.Shutdown();

  std::future<Tensor> fut =
      server.Submit(sid, RandFeatures(1, 1), RandLinearInput(1, 2));
  EXPECT_FALSE(fut.get().defined());
  std::future<Tensor> try_fut;
  EXPECT_FALSE(server.TrySubmit(sid, RandFeatures(1, 3), RandLinearInput(1, 4),
                                &try_fut));
  EXPECT_GE(server.stats().requests_rejected, 2);
}

// A partial batch (far below max_batch_size) must still flush once the
// oldest request crosses the deadline — latency is bounded without load.
TEST(AdapterServer, DeadlineFlushesPartialBatch) {
  core::TnAdapter adapter(BaseLinear(), MetaOpts(AdapterKind::kMetaLoraCp));
  RandomizeFactors(adapter, 91);
  AdapterServerOptions opts;
  opts.max_batch_size = 64;  // never reached by 3 requests
  opts.flush_deadline_us = 1000;
  AdapterServer server(opts);
  const int sid = server.RegisterSession(&adapter, adapter.conditioning_cache());
  server.Start();

  std::vector<std::future<Tensor>> futures;
  for (uint64_t i = 0; i < 3; ++i) {
    futures.push_back(server.Submit(sid, RandFeatures(1, 500 + i),
                                    RandLinearInput(1, 600 + i)));
  }
  for (auto& fut : futures) {
    EXPECT_TRUE(fut.get().defined());
  }
  // All futures resolved before Shutdown, so the flush that carried them
  // was a deadline flush (3 < 64 rules out a size flush, and the drain
  // flush hasn't happened yet).
  const ServeStats stats = server.stats();
  EXPECT_GE(stats.deadline_flushes, 1);
  EXPECT_EQ(stats.size_flushes, 0);
  server.Shutdown();
}

// BoundedQueue primitive: FIFO order, Push blocking on full, drain-on-close.
TEST(BoundedQueueTest, FifoAndDrainAfterClose) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    ASSERT_TRUE(q.Push(v));
  }
  int overflow = 99;
  EXPECT_FALSE(q.TryPush(overflow));
  q.Close();
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(q.Pop(&out), QueuePopStatus::kItem);
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(q.Pop(&out), QueuePopStatus::kClosed);
  int late = 5;
  EXPECT_FALSE(q.Push(late));
  EXPECT_EQ(q.peak_size(), 4);
}

TEST(BoundedQueueTest, PushUnblocksWhenConsumerDrains) {
  BoundedQueue<int> q(1);
  int v = 1;
  ASSERT_TRUE(q.Push(v));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    int w = 2;
    ASSERT_TRUE(q.Push(w));  // blocks until the consumer pops
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(pushed.load());
  int out = 0;
  ASSERT_EQ(q.Pop(&out), QueuePopStatus::kItem);
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_EQ(q.Pop(&out), QueuePopStatus::kItem);
  EXPECT_EQ(out, 2);
}

TEST(BoundedQueueTest, PopForTimesOutOnEmpty) {
  BoundedQueue<int> q(2);
  int out = 0;
  EXPECT_EQ(q.PopFor(&out, 500), QueuePopStatus::kTimeout);
  int v = 7;
  ASSERT_TRUE(q.Push(v));
  EXPECT_EQ(q.PopFor(&out, 500), QueuePopStatus::kItem);
  EXPECT_EQ(out, 7);
}

}  // namespace
}  // namespace serve
}  // namespace metalora
