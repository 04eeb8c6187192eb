// Figure 3 reproduction: LoRA and Conv-LoRA as tensor networks.
//
// Fig. 3 shows (a) matrix LoRA as a two-node network and (b) Conv-LoRA
// (Eq. 5) factorizing into a small convolution followed by a 1×1
// channel-recovery convolution. This bench verifies the factorization
// identity and reproduces the figure's efficiency claim: parameters and
// FLOPs of Conv-LoRA vs dense fine-tuning and vs materializing ΔW, over a
// rank sweep.
#include <iostream>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/tn_adapter.h"
#include "nn/conv2d.h"
#include "tensor/conv_ops.h"
#include "tensor/random_init.h"
#include "tensor/tensor_ops.h"
#include "tn/tn_cost.h"

using namespace metalora;  // NOLINT

int main() {
  std::cout << "=== Fig. 3 reproduction: Conv-LoRA = small conv + 1x1 conv "
               "(Eq. 5) ===\n\n";
  const int64_t in_ch = 16, out_ch = 32, k = 3, img = 16;
  Rng rng(3);
  Tensor x = RandomNormal(Shape{4, in_ch, img, img}, rng);

  TablePrinter printer(StrFormat(
      "Conv layer %ldx%ldx%ldx%ld on %ldx%ld input (batch 4)", k, k, in_ch,
      out_ch, img, img));
  printer.SetHeader({"rank R", "adapter params", "vs dense", "2-stage madds",
                     "dense-dW madds", "identity |diff|", "2-stage ms",
                     "merged ms"});

  const int64_t dense_params = tn::DenseConvParams(k, in_ch, out_ch);
  bool all_ok = true;
  for (int64_t rank : {1, 2, 4, 8, 16}) {
    core::AdapterOptions opts;
    opts.kind = core::AdapterKind::kLora;
    opts.rank = rank;
    opts.alpha = 2.0f * rank;
    opts.seed = 100 + static_cast<uint64_t>(rank);
    Rng base_rng(9);
    auto base = std::make_unique<nn::Conv2d>(in_ch, out_ch, k, 1, 1,
                                             /*bias=*/false, base_rng);
    const ConvGeom geom = base->geom();
    core::TnAdapter lora(std::move(base), opts);
    // Nonzero B so the identity is nontrivial.
    for (auto& np : lora.NamedParameters()) {
      if (np.name == "lora_b") {
        FillNormal(np.variable->mutable_value(), rng, 0.0f, 0.5f);
      }
    }

    autograd::NoGradGuard guard;
    Timer t1;
    Tensor two_stage = lora.Forward(nn::Variable(x, false)).value();
    const double two_stage_ms = t1.Millis();

    // Merged path: base conv + conv with materialized ΔW.
    Tensor base_out = lora.base()->Forward(nn::Variable(x, false)).value();
    Timer t2;
    Tensor delta_w = lora.DeltaWeight();
    Tensor merged =
        Add(base_out, Conv2dForward(x, delta_w, Tensor(), geom));
    const double merged_ms = t2.Millis();

    const float diff = MaxAbsDiff(two_stage, merged);
    all_ok = all_ok && diff < 5e-2f;

    const int64_t adapter_params = tn::ConvLoraParams(k, in_ch, out_ch, rank);
    printer.AddRow(
        {std::to_string(rank), FormatWithCommas(adapter_params),
         FormatDouble(100.0 * adapter_params / dense_params, 1) + "%",
         HumanCount(static_cast<double>(
             tn::ConvLoraFlops(k, in_ch, out_ch, rank, img, img))),
         HumanCount(static_cast<double>(tn::ConvFlops(k, in_ch, out_ch, img, img))),
         StrFormat("%.2e", diff), FormatDouble(two_stage_ms, 2),
         FormatDouble(merged_ms, 2)});
  }
  printer.Print(std::cout);

  std::cout << "\nmatrix LoRA reference (dense " << in_ch << "x" << out_ch
            << " = " << FormatWithCommas(tn::DenseLinearParams(in_ch, out_ch))
            << " params):\n";
  TablePrinter lp("");
  lp.SetHeader({"rank R", "LoRA params", "vs dense"});
  for (int64_t rank : {1, 2, 4, 8}) {
    const int64_t p = tn::LoraLinearParams(in_ch, out_ch, rank);
    lp.AddRow({std::to_string(rank), FormatWithCommas(p),
               FormatDouble(100.0 * p / tn::DenseLinearParams(in_ch, out_ch), 1) +
                   "%"});
  }
  lp.Print(std::cout);

  std::cout << "\nfactorization identity (two-stage == merged dW conv): "
            << (all_ok ? "PASS" : "FAIL") << "\n";
  return all_ok ? 0 : 1;
}
