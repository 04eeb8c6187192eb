// Ablation C: parameter efficiency — the "0.1%–1% of trainable parameters"
// claim of §I, measured on both backbones for every method, now including
// the LoTR (cross-layer shared factors) and tensor-train families.
//
// Prints trainable-parameter counts and fractions after injection, plus the
// closed-form layer formulas from tn/tn_cost.h. Two contracts are asserted
// (exit 1 on violation), so CI can run this as a smoke check:
//   1. For every family with a closed form, the tn_cost.h formulas summed
//      over the injected layers equal the measured trainable count exactly
//      (LoTR's shared factors counted once per geometry group).
//   2. LoTR injects strictly fewer trainable parameters than plain LoRA at
//      equal rank, on both backbones.
#include <iostream>

#include "common/cli.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/inject.h"
#include "core/tn_adapter.h"
#include "eval/trainer.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/mlp_mixer.h"
#include "nn/resnet.h"
#include "tn/tn_cost.h"

using namespace metalora;  // NOLINT

namespace {

eval::Backbone MakeBackbone(eval::BackboneKind kind) {
  if (kind == eval::BackboneKind::kResNet) {
    nn::ResNetConfig c;
    c.base_width = 8;
    c.blocks_per_stage = 1;
    c.num_classes = 6;
    c.seed = 1;
    return eval::MakeResNetBackbone(c);
  }
  nn::MlpMixerConfig c;
  c.image_size = 16;
  c.patch_size = 4;
  c.hidden_dim = 32;
  c.token_mlp_dim = 16;
  c.channel_mlp_dim = 64;
  c.num_blocks = 2;
  c.num_classes = 6;
  c.seed = 1;
  return eval::MakeMixerBackbone(c);
}

// Params of MappingNet(feature_dim, hidden, rank, kVector|kMatrix): one
// hidden affine layer plus the output affine layer of the inner Mlp.
int64_t MappingNetParams(int64_t feature_dim, int64_t hidden, int64_t rank,
                         bool matrix_seed) {
  const int64_t out = matrix_seed ? rank * rank : rank;
  return feature_dim * hidden + hidden + hidden * out + out;
}

// Closed-form trainable count of one injected adapter, from tn/tn_cost.h
// plus the mapping-net size for the conditioned kinds. Returns -1 when the
// family has no closed form (Multi-LoRA / MoE branch bookkeeping lives
// outside tn_cost). LoTR shared factors are counted only on the owner, so
// summing over a group reproduces the group's true trainable count.
int64_t ClosedFormParams(const core::Adapter* a, const core::AdapterOptions& o,
                         int64_t feature_dim) {
  const nn::Module* base = const_cast<core::Adapter*>(a)->Child("base");
  const auto* lin = dynamic_cast<const nn::Linear*>(base);
  const auto* conv = dynamic_cast<const nn::Conv2d*>(base);
  const int64_t r = o.rank;
  const int64_t map_vec = MappingNetParams(feature_dim, o.mapping_hidden, r,
                                           /*matrix_seed=*/false);
  const int64_t map_mat = MappingNetParams(feature_dim, o.mapping_hidden, r,
                                           /*matrix_seed=*/true);
  switch (o.kind) {
    case core::AdapterKind::kLora:
      return lin ? tn::LoraLinearParams(lin->in_features(),
                                        lin->out_features(), r)
                 : tn::ConvLoraParams(conv->geom().kernel_h,
                                      conv->in_channels(),
                                      conv->out_channels(), r);
    case core::AdapterKind::kMetaLoraCp:
      return (lin ? tn::MetaLoraCpLinearParams(lin->in_features(),
                                               lin->out_features(), r)
                  : tn::ConvLoraParams(conv->geom().kernel_h,
                                       conv->in_channels(),
                                       conv->out_channels(), r)) +
             map_vec;
    case core::AdapterKind::kMetaLoraTr:
      return (lin ? tn::MetaLoraTrLinearParams(lin->in_features(),
                                               lin->out_features(), r)
                  : tn::MetaLoraTrConvParams(conv->geom().kernel_h,
                                             conv->in_channels(),
                                             conv->out_channels(), r)) +
             map_mat;
    case core::AdapterKind::kLotr:
    case core::AdapterKind::kMetaLotr: {
      int64_t n = tn::LotrCoreParams(r);
      if (static_cast<const core::TnAdapter*>(a)->owns_shared_factors()) {
        n += lin ? tn::LotrSharedLinearParams(lin->in_features(),
                                              lin->out_features(), r)
                 : tn::LotrSharedConvParams(conv->geom().kernel_h,
                                            conv->in_channels(),
                                            conv->out_channels(), r);
      }
      if (o.kind == core::AdapterKind::kMetaLotr) n += map_vec;
      return n;
    }
    case core::AdapterKind::kTt:
    case core::AdapterKind::kMetaTt: {
      int64_t n = lin ? tn::TtLinearParams(lin->in_features(),
                                           lin->out_features(), r)
                      : tn::TtConvParams(conv->geom().kernel_h,
                                         conv->in_channels(),
                                         conv->out_channels(), r);
      if (o.kind == core::AdapterKind::kMetaTt) n += map_vec;
      return n;
    }
    default:
      return -1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli;
  cli.AddInt("rank", 2, "adapter rank");
  if (auto st = cli.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.Usage(argv[0]);
    return 0;
  }
  const int64_t rank = cli.GetInt("rank");

  std::cout << "=== Ablation C: parameter efficiency of each method (rank "
            << rank << ") ===\n\n";

  bool ok = true;
  for (auto backbone_kind :
       {eval::BackboneKind::kResNet, eval::BackboneKind::kMlpMixer}) {
    TablePrinter printer("Backbone: " +
                         eval::BackboneKindName(backbone_kind));
    printer.SetHeader({"Method", "backbone params", "trainable params",
                       "fraction", "convs", "linears", "shared groups"});
    int64_t lora_trainable = -1;
    int64_t lotr_trainable = -1;
    for (auto kind :
         {core::AdapterKind::kNone, core::AdapterKind::kLora,
          core::AdapterKind::kMultiLora, core::AdapterKind::kMetaLoraCp,
          core::AdapterKind::kMetaLoraTr, core::AdapterKind::kLotr,
          core::AdapterKind::kMetaLotr, core::AdapterKind::kTt,
          core::AdapterKind::kMetaTt}) {
      eval::Backbone bb = MakeBackbone(backbone_kind);
      const int64_t total_before = bb.module->ParamCount();
      core::AdapterOptions opts;
      opts.kind = kind;
      opts.rank = rank;
      opts.num_tasks = 4;
      opts.feature_dim = bb.feature_dim;
      opts.mapping_hidden = 16;
      opts.seed = 5;
      auto r = core::InjectAdapters(bb.module.get(), opts);
      if (!r.ok()) {
        std::cerr << "injection failed: " << r.status().ToString() << "\n";
        return 1;
      }
      const int64_t trainable = bb.module->TrainableParamCount();
      if (kind == core::AdapterKind::kLora) lora_trainable = trainable;
      if (kind == core::AdapterKind::kLotr) lotr_trainable = trainable;

      // Contract 1: injected counts agree with the per-adapter sums and —
      // where a closed form exists — with tn/tn_cost.h exactly.
      if (kind != core::AdapterKind::kNone &&
          trainable != r->adapter_param_count) {
        std::cerr << "FAIL: " << core::AdapterKindName(kind)
                  << ": TrainableParamCount " << trainable
                  << " != sum of AdapterParamCount " << r->adapter_param_count
                  << "\n";
        ok = false;
      }
      int64_t closed = 0;
      bool has_closed = kind != core::AdapterKind::kNone;
      for (const core::Adapter* a : r->adapters) {
        const int64_t c = ClosedFormParams(a, opts, bb.feature_dim);
        if (c < 0) {
          has_closed = false;
          break;
        }
        closed += c;
      }
      if (has_closed && closed != trainable) {
        std::cerr << "FAIL: " << core::AdapterKindName(kind)
                  << ": closed-form count " << closed
                  << " != measured trainable count " << trainable << "\n";
        ok = false;
      }

      printer.AddRow(
          {core::AdapterKindName(kind), FormatWithCommas(total_before),
           FormatWithCommas(trainable),
           FormatDouble(100.0 * trainable / total_before, 2) + "%",
           std::to_string(r->num_wrapped_convs),
           std::to_string(r->num_wrapped_linears),
           std::to_string(r->num_shared_groups)});
    }
    printer.Print(std::cout);

    // Contract 2: LoTR undercuts plain LoRA at equal rank.
    if (lotr_trainable >= lora_trainable) {
      std::cerr << "FAIL: LoTR trainable params (" << lotr_trainable
                << ") not below plain LoRA (" << lora_trainable << ") on "
                << eval::BackboneKindName(backbone_kind) << "\n";
      ok = false;
    } else {
      std::cout << "LoTR vs LoRA at rank " << rank << ": "
                << FormatWithCommas(lotr_trainable) << " < "
                << FormatWithCommas(lora_trainable) << " trainable params ("
                << FormatDouble(100.0 * lotr_trainable / lora_trainable, 1)
                << "%)\n";
    }
    std::cout << "\n";
  }

  std::cout << "closed-form single-layer audits (I=64, O=64, K=3):\n";
  TablePrinter audit("");
  audit.SetHeader({"formula", "params"});
  audit.AddRow({"dense linear", FormatWithCommas(tn::DenseLinearParams(64, 64))});
  audit.AddRow({"LoRA linear (R)", FormatWithCommas(tn::LoraLinearParams(64, 64, rank))});
  audit.AddRow({"MetaLoRA TR linear (R)",
                FormatWithCommas(tn::MetaLoraTrLinearParams(64, 64, rank))});
  audit.AddRow({"LoTR shared linear (R)",
                FormatWithCommas(tn::LotrSharedLinearParams(64, 64, rank))});
  audit.AddRow({"LoTR per-layer core (R)",
                FormatWithCommas(tn::LotrCoreParams(rank))});
  audit.AddRow({"TT linear (R)",
                FormatWithCommas(tn::TtLinearParams(64, 64, rank))});
  audit.AddRow({"dense conv", FormatWithCommas(tn::DenseConvParams(3, 64, 64))});
  audit.AddRow({"Conv-LoRA (R)", FormatWithCommas(tn::ConvLoraParams(3, 64, 64, rank))});
  audit.AddRow({"MetaLoRA TR conv (R)",
                FormatWithCommas(tn::MetaLoraTrConvParams(3, 64, 64, rank))});
  audit.AddRow({"LoTR shared conv (R)",
                FormatWithCommas(tn::LotrSharedConvParams(3, 64, 64, rank))});
  audit.AddRow({"TT conv (R)",
                FormatWithCommas(tn::TtConvParams(3, 64, 64, rank))});
  audit.Print(std::cout);
  std::cout << "\n(at production widths the adapter fraction lands in the "
               "paper's 0.1%-1% regime;\n the small backbones here sit "
               "higher because dense layer sizes shrink quadratically\n "
               "while adapter sizes shrink linearly)\n";
  if (!ok) {
    std::cerr << "\nparam_efficiency: closed-form/efficiency contracts "
                 "violated\n";
    return 1;
  }
  std::cout << "\nall closed-form counts match injected counts exactly; "
               "LoTR < LoRA on both backbones\n";
  return 0;
}
