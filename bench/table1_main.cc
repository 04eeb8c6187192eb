// Reproduces Table I of the paper: KNN accuracy (K = 5, 10) of ResNet and
// MLP-Mixer backbones adapted with Original / LoRA / Multi-LoRA /
// Meta-LoRA CP / Meta-LoRA TR on a multi-task synthetic suite, with a
// two-sided Welch t-test star on the best MetaLoRA variant.
//
// Absolute numbers differ from the paper (different data substrate, CPU
// scale); the reproduction target is the ordering and the significance
// pattern. See EXPERIMENTS.md.
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "eval/experiment.h"

namespace {

using metalora::CommandLine;
using metalora::core::AdapterKind;
using metalora::eval::BackboneKind;
using metalora::eval::ExperimentConfig;
using metalora::eval::Table1Result;

ExperimentConfig BuildConfig(const CommandLine& cli, BackboneKind backbone) {
  ExperimentConfig c;
  c.backbone = backbone;
  c.image_size = cli.GetInt("image_size");
  c.num_classes = cli.GetInt("classes");
  c.num_tasks = static_cast<int>(cli.GetInt("tasks"));
  c.per_task_train = cli.GetInt("per_task_train");
  c.per_task_test = cli.GetInt("per_task_test");
  c.pretrain_samples = cli.GetInt("pretrain_samples");
  c.resnet_width = cli.GetInt("resnet_width");
  c.mixer_hidden = cli.GetInt("mixer_hidden");
  c.mixer_blocks = static_cast<int>(cli.GetInt("mixer_blocks"));
  c.rank = cli.GetInt("rank");
  c.alpha = static_cast<float>(cli.GetDouble("alpha"));
  c.pretrain.epochs = static_cast<int>(cli.GetInt("pretrain_epochs"));
  c.pretrain.lr = cli.GetDouble("pretrain_lr");
  c.adapt.epochs = static_cast<int>(cli.GetInt("adapt_epochs"));
  c.adapt.lr = cli.GetDouble("adapt_lr");
  c.num_seeds = static_cast<int>(cli.GetInt("seeds"));
  c.seed = cli.GetInt("seed");
  c.verbose = cli.GetBool("verbose");
  if (cli.GetBool("quick")) {
    c.per_task_train = 32;
    c.per_task_test = 16;
    c.pretrain_samples = 128;
    c.pretrain.epochs = 2;
    c.adapt.epochs = 2;
    c.num_seeds = 1;
  }
  return c;
}

void PrintBackboneColumns(const Table1Result& table,
                          metalora::TablePrinter& printer,
                          const ExperimentConfig& config) {
  for (const auto& m : table.methods) {
    std::vector<std::string> row = {metalora::core::AdapterKindName(m.kind)};
    for (int k : config.knn_ks) {
      std::string cell =
          metalora::FormatDouble(100.0 * m.mean_accuracy.at(k), 2) + "%";
      auto sig = table.significance.find(k);
      if (sig != table.significance.end() && sig->second.significant_at_05 &&
          table.best_meta.count(k) && table.best_meta.at(k) == m.kind &&
          sig->second.t_statistic > 0) {
        cell += "*";
      }
      if (config.num_seeds > 1) {
        cell += " (±" +
                metalora::FormatDouble(100.0 * m.std_accuracy.at(k), 2) + ")";
      }
      row.push_back(cell);
    }
    row.push_back(metalora::FormatWithCommas(m.trainable_params));
    row.push_back(metalora::FormatDouble(m.adapt_seconds, 1) + "s");
    printer.AddRow(row);
  }
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli;
  cli.AddBool("quick", false, "CI-scale run (tiny data, 1 seed)");
  cli.AddBool("verbose", false, "log per-epoch losses");
  cli.AddString("backbone", "both", "resnet | mixer | vit | both | all");
  cli.AddBool("extensions", true,
              "include the LoTR and tensor-train families next to the "
              "paper's Table-I lineup");
  cli.AddInt("image_size", 16, "square image extent");
  cli.AddInt("classes", 6, "number of geometry classes");
  cli.AddInt("tasks", 4, "number of domain-shift tasks");
  cli.AddInt("per_task_train", 96, "train samples per task");
  cli.AddInt("per_task_test", 48, "test samples per task");
  cli.AddInt("pretrain_samples", 512, "base-domain pre-training samples");
  cli.AddInt("resnet_width", 8, "ResNet base width");
  cli.AddInt("mixer_hidden", 32, "Mixer hidden dim");
  cli.AddInt("mixer_blocks", 2, "Mixer blocks");
  cli.AddInt("rank", 2, "adapter rank R");
  cli.AddDouble("alpha", 8.0, "LoRA scaling alpha");
  cli.AddInt("pretrain_epochs", 4, "pre-training epochs");
  cli.AddDouble("pretrain_lr", 2e-3, "pre-training LR");
  cli.AddInt("adapt_epochs", 6, "adaptation epochs");
  cli.AddDouble("adapt_lr", 4e-3, "adaptation LR");
  cli.AddInt("seeds", 3, "seeds for mean/std and the t-test");
  cli.AddInt("seed", 42, "root seed");
  cli.AddString("csv", "", "optional path for a CSV dump of all cells");

  if (auto st = cli.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << cli.Usage(argv[0]);
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.Usage(argv[0]);
    return 0;
  }

  // Table-I lineup plus the tensor-adapter extensions (LoTR cross-layer
  // sharing, tensor-train), each in static and conditioned form.
  std::vector<AdapterKind> methods = {
      AdapterKind::kNone, AdapterKind::kLora, AdapterKind::kMultiLora,
      AdapterKind::kMetaLoraCp, AdapterKind::kMetaLoraTr};
  if (cli.GetBool("extensions")) {
    methods.insert(methods.end(),
                   {AdapterKind::kLotr, AdapterKind::kMetaLotr,
                    AdapterKind::kTt, AdapterKind::kMetaTt});
  }

  std::vector<BackboneKind> backbones;
  const std::string& which = cli.GetString("backbone");
  if (which == "resnet" || which == "both" || which == "all")
    backbones.push_back(BackboneKind::kResNet);
  if (which == "mixer" || which == "both" || which == "all")
    backbones.push_back(BackboneKind::kMlpMixer);
  if (which == "vit" || which == "all")
    backbones.push_back(BackboneKind::kTransformer);
  if (backbones.empty()) {
    std::cerr << "unknown --backbone value: " << which << "\n";
    return 1;
  }

  std::unique_ptr<metalora::CsvWriter> csv;
  if (!cli.GetString("csv").empty()) {
    csv = std::make_unique<metalora::CsvWriter>(cli.GetString("csv"));
    csv->WriteRow({"backbone", "method", "k", "seed_idx", "accuracy"});
  }

  metalora::Timer timer;
  std::cout << "=== Table I reproduction: KNN accuracy of adapted backbones "
               "===\n"
            << "(paper: MetaLoRA, ICDE'25 — synthetic multi-task substrate; "
               "shapes, not absolute values, are the target)\n\n";

  for (BackboneKind backbone : backbones) {
    ExperimentConfig config = BuildConfig(cli, backbone);
    auto result = metalora::eval::RunTable1Experiment(config, methods);
    if (!result.ok()) {
      std::cerr << "experiment failed: " << result.status().ToString() << "\n";
      return 1;
    }
    metalora::TablePrinter printer(
        "Backbone: " + metalora::eval::BackboneKindName(backbone) +
        "  (rank=" + std::to_string(config.rank) +
        ", tasks=" + std::to_string(config.num_tasks) +
        ", seeds=" + std::to_string(config.num_seeds) + ")");
    std::vector<std::string> header = {"Method"};
    for (int k : config.knn_ks) header.push_back("K=" + std::to_string(k));
    header.push_back("Trainable params");
    header.push_back("Adapt time");
    printer.SetHeader(header);
    PrintBackboneColumns(result.value(), printer, config);
    printer.Print(std::cout);

    for (int k : config.knn_ks) {
      auto it = result->significance.find(k);
      if (it != result->significance.end()) {
        std::cout << "  K=" << k << ": best MetaLoRA ("
                  << metalora::core::AdapterKindName(result->best_meta.at(k))
                  << ") vs best baseline: t="
                  << metalora::FormatDouble(it->second.t_statistic, 3)
                  << ", p=" << metalora::FormatDouble(it->second.p_value, 4)
                  << (it->second.significant_at_05 ? "  (* p<0.05)" : "")
                  << "\n";
      }
    }
    std::cout << "\n";

    if (csv) {
      for (const auto& m : result->methods) {
        for (const auto& [k, accs] : m.accuracies) {
          for (size_t s = 0; s < accs.size(); ++s) {
            csv->WriteRow({metalora::eval::BackboneKindName(backbone),
                           metalora::core::AdapterKindName(m.kind),
                           std::to_string(k), std::to_string(s),
                           metalora::FormatDouble(accs[s], 6)});
          }
        }
      }
    }
  }
  if (csv) {
    if (auto st = csv->Close(); !st.ok()) {
      std::cerr << "csv write failed: " << st.ToString() << "\n";
      return 1;
    }
  }
  std::cout << "total wall time: " << metalora::FormatDouble(timer.Seconds(), 1)
            << "s\n";
  return 0;
}
