// Figure 4 reproduction: the MetaLoRA architecture.
//
// Fig. 4 shows the mapping net generating the seed c (CP) or core C (TR),
// integrated into weight matrices and convolutional tensors via the CP and
// TR formats. This bench measures what the figure implies:
//   (1) seed generation cost (mapping-net forward) per input;
//   (2) the factored per-sample application vs materializing a per-sample
//       ΔW — the implementation insight that makes MetaLoRA cheap;
//   (3) stored parameters of each format over a rank sweep.
#include <iostream>

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/mapping_net.h"
#include "core/metalora_linear.h"
#include "core/tn_adapter.h"
#include "nn/linear.h"
#include "tensor/matmul.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"
#include "tn/tn_cost.h"

using namespace metalora;  // NOLINT

int main() {
  std::cout << "=== Fig. 4 reproduction: mapping net -> c/C -> CP & TR "
               "integration ===\n\n";
  const int64_t in = 64, out = 64, feat = 32, batch = 32;
  Rng rng(4);
  Tensor x = RandomNormal(Shape{batch, in}, rng);
  Tensor feats = RandomNormal(Shape{batch, feat}, rng);

  TablePrinter printer(StrFormat(
      "Linear %ldx%ld, batch %ld, feature dim %ld", in, out, batch, feat));
  printer.SetHeader({"format", "rank R", "adapter params", "seed gen us",
                     "factored fwd us", "per-sample dW us", "speedup"});

  for (int64_t rank : {2, 4, 8}) {
    for (int variant = 0; variant < 2; ++variant) {
      const bool is_tr = variant == 1;
      core::AdapterOptions opts;
      opts.kind = is_tr ? core::AdapterKind::kMetaLoraTr
                        : core::AdapterKind::kMetaLoraCp;
      opts.rank = rank;
      opts.alpha = static_cast<float>(rank);
      opts.feature_dim = feat;
      opts.mapping_hidden = 16;
      opts.seed = 40 + static_cast<uint64_t>(rank);

      Rng brng(7);
      auto make_base = [&] {
        return std::make_unique<nn::Linear>(in, out, true, brng);
      };

      autograd::NoGradGuard guard;
      double gen_us = 0, factored_us = 0, materialized_us = 0;
      int64_t params = 0;
      const int reps = 20;

      if (!is_tr) {
        core::TnAdapter meta(make_base(), opts);
        Rng frng(11);
        for (auto& np : meta.NamedParameters()) {
          if (np.name == "lora_b")
            FillNormal(np.variable->mutable_value(), frng, 0, 0.5f);
        }
        params = meta.AdapterParamCount();
        nn::Variable fv(feats, false);
        Timer tg;
        Tensor seeds;
        for (int i = 0; i < reps; ++i)
          seeds = meta.mapping_net()->Forward(fv).value();
        gen_us = tg.Micros() / reps;

        meta.SetFeatures(fv);
        Timer tf;
        for (int i = 0; i < reps; ++i)
          meta.Forward(nn::Variable(x, false));
        factored_us = tf.Micros() / reps;

        // Faithful-but-slow path: materialize ΔW per sample and apply.
        Timer tm;
        for (int i = 0; i < reps; ++i) {
          for (int64_t s = 0; s < batch; ++s) {
            Tensor c{Shape{rank}};
            for (int64_t r = 0; r < rank; ++r)
              c.flat(r) = seeds.flat(s * rank + r);
            Tensor dw = meta.DeltaWeight(&c);
            Tensor xs{Shape{1, in}};
            std::copy(x.data() + s * in, x.data() + (s + 1) * in, xs.data());
            Tensor ys = MatmulTransB(xs, dw);
            (void)ys;
          }
        }
        materialized_us = tm.Micros() / reps;
      } else {
        core::MetaLoraTrLinear meta(make_base(), opts);
        Rng frng(11);
        for (auto& np : meta.NamedParameters()) {
          if (np.name == "core_b")
            FillNormal(np.variable->mutable_value(), frng, 0, 0.5f);
        }
        params = meta.AdapterParamCount();
        nn::Variable fv(feats, false);
        Timer tg;
        Tensor seeds;
        for (int i = 0; i < reps; ++i)
          seeds = meta.mapping_net()->Forward(fv).value();
        gen_us = tg.Micros() / reps;

        meta.SetFeatures(fv);
        Timer tf;
        for (int i = 0; i < reps; ++i)
          meta.Forward(nn::Variable(x, false));
        factored_us = tf.Micros() / reps;

        Timer tm;
        for (int i = 0; i < reps; ++i) {
          for (int64_t s = 0; s < batch; ++s) {
            Tensor core{Shape{rank, rank}};
            for (int64_t r = 0; r < rank * rank; ++r)
              core.flat(r) = seeds.flat(s * rank * rank + r);
            Tensor dw = meta.DeltaWeightFor(core);
            Tensor xs{Shape{1, in}};
            std::copy(x.data() + s * in, x.data() + (s + 1) * in, xs.data());
            Tensor ys = MatmulTransB(xs, dw);
            (void)ys;
          }
        }
        materialized_us = tm.Micros() / reps;
      }

      printer.AddRow({is_tr ? "MetaLoRA TR (Eq. 7)" : "MetaLoRA CP (Eq. 6)",
                      std::to_string(rank), FormatWithCommas(params),
                      FormatDouble(gen_us, 1), FormatDouble(factored_us, 1),
                      FormatDouble(materialized_us, 1),
                      FormatDouble(materialized_us /
                                       std::max(factored_us, 1e-9), 1) +
                          "x"});
    }
  }
  printer.Print(std::cout);

  std::cout << "\nstored-parameter scaling (dense " << in << "x" << out << " = "
            << FormatWithCommas(tn::DenseLinearParams(in, out)) << "):\n";
  TablePrinter pt("");
  pt.SetHeader({"rank R", "CP factors", "TR cores", "TR/CP ratio"});
  for (int64_t rank : {1, 2, 4, 8, 16}) {
    const int64_t cp = tn::MetaLoraCpLinearParams(in, out, rank);
    const int64_t tr = tn::MetaLoraTrLinearParams(in, out, rank);
    pt.AddRow({std::to_string(rank), FormatWithCommas(cp),
               FormatWithCommas(tr),
               FormatDouble(static_cast<double>(tr) / cp, 2) + "x"});
  }
  pt.Print(std::cout);
  std::cout << "\n(the factored path applies the generated update without\n"
               " ever materializing a per-sample weight matrix; Eq. 6\n"
               " factorizes as (xA)diag(c)B, Eq. 7 as batched bond\n"
               " contractions — see DESIGN.md)\n";
  return 0;
}
