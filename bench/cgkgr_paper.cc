// Reproduces the paper's result tables and figures — Tables IV-XI, Figs.
// 1/4/5/6 and the neighbor-sampler extension — under one protocol: a fresh
// synthetic split per trial, Adam with early stopping on the eval split,
// then full-ranking Top-K or CTR evaluation on the test split. A table is
// data (title, default datasets, variants, recorded metrics, printer); one
// grid runner trains and evaluates it and its layout family's printer
// renders the paper-style rows. Results publish as BENCH_<table>.json.
//
//   ./build/bench/cgkgr_paper --table table4_topk
//   ./build/bench/cgkgr_paper --table table9_encoder --trials 3
//   ./build/bench/cgkgr_paper --table table9_encoder --datasets movie
//   ./build/bench/cgkgr_paper --table fig6_corruption --models KGCN,CG-KGR
//
// Each table defaults to light presets so the suite stays runnable on one
// core; an explicit --datasets is run as given.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/cgkgr_model.h"
#include "data/corruption.h"
#include "data/presets.h"
#include "eval/experiment.h"
#include "eval/protocol.h"
#include "eval/wilcoxon.h"
#include "exp/artifact.h"
#include "exp/runner.h"
#include "models/registry.h"
#include "obs/json.h"

namespace cgkgr {
namespace {

using core::CgKgrConfig;

/// A recorded metric and its column header. Metrics: "recall" / "ndcg"
/// (@20, or at the K after '@'), "auc", "f1", "t" (seconds per epoch) and
/// "be" (epochs to the best eval metric).
struct Column {
  std::string header;
  std::string metric;
  /// PrintModelRows: printf format of the mean; nullptr prints
  /// "mean +/- std" in percent.
  const char* format = nullptr;
};

struct Table;

/// Renders one dataset's results: prints a block, or adds rows to the one
/// grid every dataset shares (created on first use, printed at the end).
using Printer = void (*)(const Table& table, const std::string& dataset,
                         const eval::TrialAggregator& agg,
                         std::optional<TablePrinter>* grid);

struct Table {
  /// --table value; the artifact is BENCH_<name>.json.
  std::string name;
  /// Artifact row-label prefix and scenario.
  std::string prefix;
  std::string title;
  /// The layout family; nullptr for Fig. 5's case study, which has no grid.
  Printer print = nullptr;
  /// Default --datasets: light presets, so the suite runs on one core.
  std::string datasets = "music,book";
  /// Runs on `datasets` (set from --dataset) whatever --datasets says.
  bool fixed_dataset = false;
  /// Row (or column) labels: registry model names, or CG-KGR variants
  /// when `edit` is set.
  std::vector<std::string> variants{};
  /// Turns CG-KGR's preset config into the named variant's.
  std::function<void(const std::string&, CgKgrConfig*)> edit{};
  /// The metrics every trial records.
  std::vector<Column> columns{};
  /// PrintModelRows: header of the variant column.
  std::string row_header = "Model";
  /// PrintModelRows: one grid for all datasets, led by a "Dataset" column.
  bool dataset_column = false;
  /// PrintModelRows: append CG-KGR's gain over the runner-up on the first
  /// column's metric, marked '*' when Wilcoxon-significant.
  bool gain_row = false;
  /// PrintModelRows: a CF/KG "Type" column and Fig. 1's CF-vs-KG verdict.
  bool cf_vs_kg = false;
  /// PrintVariantColumns: prefix of each variant's column header.
  std::string column_prefix{};
  /// PrintCorruption: the KG corruption ratios swept.
  std::vector<double> ratios{};
};

/// Fig. 6's metric name for a corruption ratio: 0.2 -> "r20".
std::string RatioTag(double ratio) {
  return StrFormat("r%.0f", ratio * 100.0);
}

/// A block per dataset: a row per variant, a column per metric, and
/// optionally CG-KGR's gain over the runner-up (Tables IV-VI, Fig. 1, the
/// sampler extension).
void PrintModelRows(const Table& table, const std::string& dataset,
                    const eval::TrialAggregator& agg,
                    std::optional<TablePrinter>* grid) {
  const std::vector<std::string> cf = models::CfModelNames();
  auto is_cf = [&](const std::string& model) {
    return std::find(cf.begin(), cf.end(), model) != cf.end();
  };
  std::vector<std::string> headers = {table.row_header};
  if (table.cf_vs_kg) headers.push_back("Type");
  for (const Column& column : table.columns) headers.push_back(column.header);
  if (table.dataset_column && !*grid) {
    headers.insert(headers.begin(), "Dataset");
    grid->emplace(headers);
  }
  TablePrinter block(headers);
  TablePrinter* out = table.dataset_column ? &**grid : &block;
  for (const std::string& label : table.variants) {
    std::vector<std::string> row;
    if (table.dataset_column) row.push_back(dataset);
    row.push_back(label);
    if (table.cf_vs_kg) row.push_back(is_cf(label) ? "CF" : "KG");
    for (const Column& column : table.columns) {
      const eval::MeanStd summary = agg.Summary(label, column.metric);
      row.push_back(column.format == nullptr
                        ? eval::FormatMeanStd(summary)
                        : StrFormat(column.format, summary.mean));
    }
    out->AddRow(row);
  }
  if (table.dataset_column) return;

  const std::string key = table.columns.front().metric;
  const std::vector<double>& ours = agg.Samples("CG-KGR", key);
  const std::string second = agg.BestRowExcept(key, "CG-KGR");
  if (table.gain_row && !second.empty() && !ours.empty()) {
    // The paper's '*': Wilcoxon signed-rank significance at the 95% level.
    const std::vector<double>& theirs = agg.Samples(second, key);
    const bool significant =
        ours.size() == theirs.size() && ours.size() >= 2 &&
        eval::WilcoxonSignedRank(ours, theirs).p_value < 0.05;
    std::vector<std::string> row = {"% Gain vs " + second +
                                    (significant ? "*" : "")};
    for (const Column& column : table.columns) {
      row.push_back(
          eval::FormatGain(agg.Summary("CG-KGR", column.metric).mean,
                           agg.Summary(second, column.metric).mean));
    }
    block.AddSeparator();
    block.AddRow(row);
  }
  std::printf("--- %s ---\n", dataset.c_str());
  block.Print();
  if (table.cf_vs_kg) {
    // Fig. 1's point: does some KG model fall below the best CF model?
    double best_cf = 0.0;
    std::vector<double> kg;
    for (const std::string& label : table.variants) {
      const double recall = agg.Summary(label, "recall").mean;
      if (is_cf(label)) {
        best_cf = std::max(best_cf, recall);
      } else {
        kg.push_back(recall);
      }
    }
    const auto below = std::count_if(
        kg.begin(), kg.end(), [&](double recall) { return recall < best_cf; });
    std::printf("KG-based models below the best CF model (Recall@20): "
                "%d of %d\n", static_cast<int>(below),
                static_cast<int>(kg.size()));
  }
  std::printf("\n");
}

/// One grid: a row per (dataset, metric), a column per variant, with the
/// delta to the "Best" column when there is one (Tables VII-XI).
void PrintVariantColumns(const Table& table, const std::string& dataset,
                         const eval::TrialAggregator& agg,
                         std::optional<TablePrinter>* grid) {
  if (!*grid) {
    std::vector<std::string> headers = {"Dataset", "Metric"};
    for (const std::string& label : table.variants) {
      headers.push_back(table.column_prefix + label);
    }
    grid->emplace(headers);
  }
  for (const Column& column : table.columns) {
    const bool has_best = !agg.Samples("Best", column.metric).empty();
    const double best = agg.Summary("Best", column.metric).mean;
    std::vector<std::string> row = {dataset, column.header};
    for (const std::string& label : table.variants) {
      const double value = agg.Summary(label, column.metric).mean;
      if (!has_best || label == "Best") {
        row.push_back(StrFormat("%.2f", value * 100.0));
      } else {
        row.push_back(StrFormat(
            "%.2f (%+.2f%%)", value * 100.0,
            best > 0.0 ? (value - best) / best * 100.0 : 0.0));
      }
    }
    (*grid)->AddRow(row);
  }
}

/// A block per dataset and metric: a column per K (Fig. 4).
void PrintKCurves(const Table& table, const std::string& dataset,
                  const eval::TrialAggregator& agg,
                  std::optional<TablePrinter>* /*grid*/) {
  for (const std::string base : {"recall", "ndcg"}) {
    std::vector<Column> curve;
    std::vector<std::string> headers = {"Model"};
    for (const Column& column : table.columns) {
      if (column.metric.rfind(base + "@", 0) != 0) continue;
      curve.push_back(column);
      headers.push_back(column.header);
    }
    TablePrinter block(headers);
    for (const std::string& label : table.variants) {
      std::vector<std::string> row = {label};
      for (const Column& column : curve) {
        row.push_back(StrFormat(
            "%.2f", agg.Summary(label, column.metric).mean * 100.0));
      }
      block.AddRow(row);
    }
    std::printf("--- %s: %s@K (%%) ---\n", dataset.c_str(), base.c_str());
    block.Print();
    std::printf("\n");
  }
}

/// A column per KG corruption ratio plus the Recall@20 lost (Fig. 6).
void PrintCorruption(const Table& table, const std::string& /*dataset*/,
                     const eval::TrialAggregator& agg,
                     std::optional<TablePrinter>* /*grid*/) {
  std::vector<std::string> headers = {"Model"};
  for (const double ratio : table.ratios) {
    headers.push_back(StrFormat("%.0f%%", ratio * 100.0));
  }
  headers.push_back("decay");
  TablePrinter block(headers);
  for (const std::string& label : table.variants) {
    std::vector<std::string> row = {label};
    std::vector<double> recall;
    for (const double ratio : table.ratios) {
      recall.push_back(agg.Summary(label, RatioTag(ratio)).mean);
      row.push_back(StrFormat("%.2f", recall.back() * 100.0));
    }
    row.push_back(StrFormat("%.2f", (recall.front() - recall.back()) * 100.0));
    block.AddRow(row);
  }
  block.Print();
  std::printf("('decay' = Recall@20 points lost from %.0f%% to %.0f%% "
              "corruption; lower = more robust)\n",
              table.ratios.front() * 100.0, table.ratios.back() * 100.0);
}

/// Every table, with its title filled in from the run's flags.
std::vector<Table> PaperTables(const FlagParser& flags) {
  using core::GuidanceMode;
  const std::string run_line =
      StrFormat("trials=%lld scale=%g\n\n",
                static_cast<long long>(flags.GetInt64("trials")),
                flags.GetDouble("scale"));
  const std::vector<Column> top20 = {{"Recall@20(%)", "recall"},
                                     {"NDCG@20(%)", "ndcg"}};
  const std::vector<Column> top20_rows = {{"R@20", "recall"},
                                          {"N@20", "ndcg"}};
  std::vector<std::string> depths;
  for (int64_t depth = 0; depth <= flags.GetInt64("max_depth"); ++depth) {
    depths.push_back("L=" + std::to_string(depth));
  }
  const std::vector<Column> curves = {
      {"@1", "recall@1"},   {"@5", "recall@5"},   {"@10", "recall@10"},
      {"@20", "recall@20"}, {"@50", "recall@50"}, {"@100", "recall@100"},
      {"@1", "ndcg@1"},     {"@5", "ndcg@5"},     {"@10", "ndcg@10"},
      {"@20", "ndcg@20"},   {"@50", "ndcg@50"},   {"@100", "ndcg@100"}};

  return {
      {.name = "table4_topk",
       .prefix = "table4",
       .title = "== Table IV: Top-20 recommendation (Recall@20 / NDCG@20, "
                "%) ==\n" + run_line,
       .print = PrintModelRows,
       .datasets = "music,book,movie",
       .variants = models::AllModelNames(),
       .columns = top20,
       .gain_row = true},
      {.name = "table5_ctr",
       .prefix = "table5",
       .title = "== Table V: CTR prediction (AUC / F1, %) ==\n" + run_line,
       .print = PrintModelRows,
       .variants = models::AllModelNames(),
       .columns = {{"AUC(%)", "auc"}, {"F1(%)", "f1"}},
       .gain_row = true},
      {.name = "table6_time",
       .prefix = "table6",
       .title = "== Table VI: time per epoch (s) and epochs-to-best ==\n"
                "(wall-clock on this machine; the paper reports a T4 GPU)"
                "\n\n",
       .print = PrintModelRows,
       .variants = models::AllModelNames(),
       .columns = {{"t (s/epoch)", "t", "%.3f"},
                   {"be (epochs)", "be", "%.1f"}}},
      {.name = "table7_guidance_ablation",
       .prefix = "table7",
       .title = "== Table VII: Collaborative Guidance ablation, Top-20 (%) "
                "==\n\n",
       .print = PrintVariantColumns,
       .variants = {"CG-KGR_NE", "CG-KGR_PF", "CG-KGR_AG", "Best"},
       .edit =
           [](const std::string& label, CgKgrConfig* c) {
             c->guidance_mode =
                 label == "CG-KGR_NE"   ? GuidanceMode::kNodeEmbeddingsOnly
                 : label == "CG-KGR_PF" ? GuidanceMode::kPreferenceFilterOnly
                 : label == "CG-KGR_AG" ? GuidanceMode::kAttractionGroupOnly
                                        : GuidanceMode::kFull;
           },
       .columns = top20_rows},
      {.name = "table8_component_ablation",
       .prefix = "table8",
       .title = "== Table VIII: component ablation, Top-20 (%) ==\n\n",
       .print = PrintVariantColumns,
       .datasets = "music,movie",
       .variants = {"w/o UI", "w/o KG", "w/o ATT", "w/o CG", "w/o HE",
                    "Best"},
       .edit =
           [](const std::string& label, CgKgrConfig* c) {
             if (label == "w/o UI") c->use_interactive_summarization = false;
             if (label == "w/o KG") c->depth = 0;
             if (label == "w/o ATT") c->use_knowledge_attention = false;
             if (label == "w/o CG") c->use_collaborative_guidance = false;
             if (label == "w/o HE") c->depth = std::min<int64_t>(c->depth, 1);
           },
       .columns = top20_rows},
      {.name = "table9_encoder",
       .prefix = "table9",
       .title = "== Table IX: guidance encoder f sweep, Top-20 (%) ==\n\n",
       .print = PrintVariantColumns,
       .variants = {"sum", "mean", "pmax"},
       .edit =
           [](const std::string& label, CgKgrConfig* c) {
             c->encoder = core::ParseEncoder(label).value();
           },
       .columns = top20_rows,
       .column_prefix = "f_"},
      {.name = "table10_aggregator",
       .prefix = "table10",
       .title = "== Table X: aggregator g sweep, Top-20 (%) ==\n\n",
       .print = PrintVariantColumns,
       .variants = {"sum", "concat", "neighbor"},
       .edit =
           [](const std::string& label, CgKgrConfig* c) {
             c->aggregator = core::ParseAggregator(label).value();
           },
       .columns = top20_rows,
       .column_prefix = "g_"},
      {.name = "table11_depth",
       .prefix = "table11",
       .title = "== Table XI: extraction depth L sweep, Top-20 (%) ==\n\n",
       .print = PrintVariantColumns,
       .datasets = "music,movie",
       .variants = depths,
       .edit =
           [](const std::string& label, CgKgrConfig* c) {
             c->depth = std::stoll(label.substr(2));  // "L=<depth>"
           },
       .columns = top20_rows},
      {.name = "fig1_cf_vs_kg",
       .prefix = "fig1",
       .title = "== Figure 1: CF-based vs KG-based models, Top-20 ==\n\n",
       .print = PrintModelRows,
       .variants = {"BPRMF", "NFM", "RippleNet", "KGCN", "KGAT"},
       .columns = top20,
       .cf_vs_kg = true},
      {.name = "fig4_topk_curves",
       .prefix = "fig4",
       .title = "== Figure 4: Recall@K and NDCG@K curves ==\n\n",
       .print = PrintKCurves,
       .datasets = "music",
       .variants = models::AllModelNames(),
       .columns = curves},
      {.name = "fig5_case_study",
       .prefix = "fig5",
       .title = StrFormat(
           "== Figure 5: guidance case study on %s, item i_%lld ==\n\n",
           flags.GetString("dataset").c_str(),
           static_cast<long long>(flags.GetInt64("item"))),
       .datasets = flags.GetString("dataset"),
       .fixed_dataset = true},
      {.name = "fig6_corruption",
       .prefix = "fig6",
       .title = StrFormat("== Figure 6: Recall@20 (%%) on corrupted %s KG "
                          "==\n\n",
                          flags.GetString("dataset").c_str()),
       .print = PrintCorruption,
       .datasets = flags.GetString("dataset"),
       .fixed_dataset = true,
       .variants = {"RippleNet", "KGCN", "CKAN", "CG-KGR"},
       .columns = {{"Recall@20", "recall"}},
       .ratios = {0.0, 0.2, 0.4}},
      // Not a paper table: the future-work direction of Sec. VI (1), a
      // degree-biased sampler that prefers well-connected KG neighbors.
      {.name = "ablation_sampler",
       .prefix = "sampler",
       .title = "== Extension: uniform vs degree-biased neighbor sampling "
                "(paper future work, Sec. VI) ==\n\n",
       .print = PrintModelRows,
       .variants = {"uniform", "degree-biased"},
       .edit =
           [](const std::string& label, CgKgrConfig* c) {
             c->sampling_strategy =
                 label == "uniform" ? graph::SamplingStrategy::kUniform
                                    : graph::SamplingStrategy::kDegreeBiased;
           },
       .columns = top20,
       .row_header = "Sampler",
       .dataset_column = true},
  };
}

/// The paper's training recipe on a preset: Adam with early stopping on
/// the eval split, monitoring Recall@20 for Top-K tables and AUC otherwise.
models::TrainOptions TrainRecipe(const data::Preset& preset,
                                 const FlagParser& flags, uint64_t seed,
                                 bool topk) {
  models::TrainOptions train;
  train.max_epochs = flags.GetInt64("epochs") > 0 ? flags.GetInt64("epochs")
                                                  : preset.hparams.max_epochs;
  train.patience = preset.hparams.patience;
  train.batch_size = preset.hparams.batch_size;
  train.seed = seed;
  train.early_stop_metric = topk ? models::EarlyStopMetric::kRecallAt20
                                 : models::EarlyStopMetric::kAuc;
  train.verbose = flags.GetBool("verbose");
  return train;
}

/// Per-user train+eval positives: what full-ranking test-split evaluation
/// excludes from the candidate set.
std::vector<std::vector<int64_t>> TestMask(const data::Dataset& dataset) {
  std::vector<graph::Interaction> seen = dataset.train;
  seen.insert(seen.end(), dataset.eval.begin(), dataset.eval.end());
  return data::Dataset::BuildPositives(seen, dataset.num_users);
}

/// The K of a Top-K metric ("ndcg@5" -> 5, a bare "recall" -> 20); 0 for
/// the other metrics.
int64_t TopKOf(const std::string& metric) {
  if (metric.rfind("recall", 0) != 0 && metric.rfind("ndcg", 0) != 0) return 0;
  const size_t at = metric.find('@');
  return at == std::string::npos ? 20 : std::stoll(metric.substr(at + 1));
}

double MetricValue(const std::string& metric, const eval::TopKResult& topk,
                   const eval::CtrResult& ctr,
                   const models::TrainStats& stats) {
  if (metric == "auc") return ctr.auc;
  if (metric == "f1") return ctr.f1;
  if (metric == "t") return stats.seconds_per_epoch;
  if (metric == "be") return static_cast<double>(stats.best_epoch);
  const auto& curve = metric.rfind("recall", 0) == 0 ? topk.recall : topk.ndcg;
  return curve.at(TopKOf(metric));
}

/// Trains and evaluates every variant on every trial of one preset and
/// records the table's metrics per variant. Fig. 6 instead re-runs every
/// variant on copies of the trial's split whose KG is corrupted at each
/// ratio, recording its one metric under the ratio's tag.
eval::TrialAggregator RunGrid(const Table& table,
                                   const data::Preset& preset,
                              const FlagParser& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  std::vector<int64_t> ks;
  bool ctr = false;
  for (const Column& column : table.columns) {
    const int64_t k = TopKOf(column.metric);
    if (k > 0 && std::find(ks.begin(), ks.end(), k) == ks.end()) {
      ks.push_back(k);
    }
    ctr |= column.metric == "auc" || column.metric == "f1";
  }

  eval::TrialAggregator agg;
  for (int64_t t = 0; t < flags.GetInt64("trials"); ++t) {
    // The trial index shifts every seed, so repeated trials reproduce the
    // paper's split/seed repetition protocol.
    const models::TrainOptions train = TrainRecipe(
        preset, flags, seed + 1000003ULL * static_cast<uint64_t>(t + 1),
        !ks.empty());
    auto run_variants = [&](const data::Dataset& dataset,
                            const std::string& tag) {
      for (const std::string& label : table.variants) {
        std::unique_ptr<models::RecommenderModel> model;
        if (table.edit) {
          CgKgrConfig config = CgKgrConfig::FromPreset(preset.hparams);
          table.edit(label, &config);
          model = std::make_unique<core::CgKgrModel>(config, label);
        } else {
          model = models::CreateModel(label, preset.hparams);
        }
        models::TrainOptions options = train;
        options.run_label = label;
        const Status st = model->Fit(dataset, options);
        CGKGR_CHECK_MSG(st.ok(), "Fit(%s) failed: %s", label.c_str(),
                        st.ToString().c_str());
        eval::TopKResult topk;
        if (!ks.empty()) {
          eval::TopKOptions topk_options;
          topk_options.ks = ks;
          topk_options.max_users = flags.GetInt64("max_eval_users");
          topk_options.user_sample_seed = train.seed ^ 0x55AA55AA55AA55AAULL;
          topk = eval::EvaluateTopK(model.get(), dataset, dataset.test,
                                    TestMask(dataset), topk_options);
        }
        eval::CtrResult ctr_result;
        if (ctr) {
          Rng ctr_rng(train.seed ^ 0x1234123412341234ULL);
          ctr_result = eval::EvaluateCtr(
              model.get(),
              data::MakeCtrExamples(dataset.test, dataset.BuildAllPositives(),
                                    dataset.num_items, &ctr_rng));
        }
        for (const Column& column : table.columns) {
          agg.Add(label, tag.empty() ? column.metric : tag,
                  MetricValue(column.metric, topk, ctr_result,
                              model->train_stats()));
        }
      }
    };

    // A fresh split per trial, like the paper's five random partitions.
    const data::Dataset clean = data::GenerateSyntheticDataset(
        preset.data, seed + 7919ULL * static_cast<uint64_t>(t));
    if (table.ratios.empty()) {
      run_variants(clean, "");
      continue;
    }
    for (const double ratio : table.ratios) {
      Rng corrupt_rng(seed + 31ULL * static_cast<uint64_t>(t) +
                      static_cast<uint64_t>(ratio * 1000.0));
      run_variants(data::CorruptKnowledgeGraph(clean, ratio, &corrupt_rng),
                   RatioTag(ratio));
    }
  }
  return agg;
}

/// Runs a grid table dataset by dataset, printing as it goes; returns the
/// artifact rows.
std::vector<exp::CaseResult> RunTable(const Table& table,
                                      const FlagParser& flags) {
  std::optional<TablePrinter> grid;
  std::vector<exp::CaseResult> rows;
  for (const std::string& dataset : Split(table.datasets, ',')) {
    const eval::TrialAggregator agg =
        RunGrid(table, data::GetPreset(dataset, flags.GetDouble("scale")),
                flags);
    table.print(table, dataset, agg, &grid);
    // A row per variant, "<prefix>/<dataset>/<variant>": each metric's mean
    // under its own name plus informational <metric>_std / <metric>_n.
    for (const std::string& name : agg.rows()) {
      exp::CaseResult row;
      row.label = table.prefix + "/" + dataset + "/" + name;
      row.scenario = table.prefix;
      row.params.Set("row", obs::Json::Str(name));
      for (const std::string& metric : agg.MetricNames(name)) {
        const eval::MeanStd summary = agg.Summary(name, metric);
        row.metrics.Set(metric, obs::Json::Double(summary.mean));
        row.metrics.Set(metric + "_std", obs::Json::Double(summary.std));
        row.metrics.Set(metric + "_n",
                        obs::Json::Int(static_cast<int64_t>(
                            agg.Samples(name, metric).size())));
      }
      rows.push_back(std::move(row));
    }
  }
  if (grid) grid->Print();
  return rows;
}

void PrintInspection(const std::string& title,
                     const core::CgKgrModel::AttentionInspection& insp) {
  std::printf("%s\n", title.c_str());
  // Aggregate duplicate sampled triplets for readability.
  std::map<std::pair<int64_t, int64_t>, float> weights;
  for (size_t i = 0; i < insp.entities.size(); ++i) {
    weights[{insp.entities[i], insp.relations[i]}] += insp.weights[i];
  }
  TablePrinter table({"Entity", "Relation", "Weight"});
  for (const auto& [key, weight] : weights) {
    table.AddRow({"e_" + std::to_string(key.first),
                  "r_" + std::to_string(key.second),
                  StrFormat("%.3f", weight)});
  }
  table.Print();
}

/// Max minus min attention weight (the weights lie in [0, 1]).
double Spread(const core::CgKgrModel::AttentionInspection& insp) {
  const auto [lo, hi] =
      std::minmax_element(insp.weights.begin(), insp.weights.end());
  return insp.weights.empty() ? -1.0 : *hi - *lo;
}

/// Shows the hop-1 knowledge attention of one item (a) without guidance
/// (the w/o CG variant) and (b)/(c) with guidance for two users: guidance
/// sharpens and personalizes the triplet weights (paper Sec. IV-F-2).
std::vector<exp::CaseResult> RunCaseStudy(const Table& table,
                                          const FlagParser& flags) {
  const data::Preset preset =
      data::GetPreset(table.datasets, flags.GetDouble("scale"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  const data::Dataset dataset =
      data::GenerateSyntheticDataset(preset.data, seed);
  const models::TrainOptions train =
      TrainRecipe(preset, flags, seed, /*topk=*/true);
  const int64_t item = flags.GetInt64("item");
  const int64_t user_a = flags.GetInt64("user_a");
  const int64_t user_b = flags.GetInt64("user_b");
  const uint64_t sample_seed = 12345;

  // (a) Without collaborative guidance: weights are user-independent.
  CgKgrConfig no_cg = CgKgrConfig::FromPreset(preset.hparams);
  no_cg.use_collaborative_guidance = false;
  core::CgKgrModel baseline(no_cg, "CG-KGR w/o CG");
  CGKGR_CHECK(baseline.Fit(dataset, train).ok());
  const auto insp_a =
      baseline.InspectKnowledgeAttention(user_a, item, sample_seed);
  PrintInspection("(a) without Collaborative Guidance:", insp_a);

  // (b)/(c) Full model: weights are customized per target user.
  core::CgKgrModel full(CgKgrConfig::FromPreset(preset.hparams));
  CGKGR_CHECK(full.Fit(dataset, train).ok());
  const auto insp_b = full.InspectKnowledgeAttention(user_a, item, sample_seed);
  PrintInspection(
      StrFormat("\n(b) guided by user u_%lld:", (long long)user_a), insp_b);
  const auto insp_c = full.InspectKnowledgeAttention(user_b, item, sample_seed);
  PrintInspection(
      StrFormat("\n(c) guided by user u_%lld:", (long long)user_b), insp_c);

  double divergence = 0.0;
  for (size_t i = 0; i < insp_b.weights.size(); ++i) {
    divergence += std::abs(insp_b.weights[i] - insp_c.weights[i]);
  }
  std::printf(
      "\nweight spread w/o guidance: %.3f; with guidance: %.3f / %.3f\n"
      "L1 divergence between the two users' weight vectors: %.3f\n"
      "(guidance personalizes the knowledge extraction, paper Sec. "
      "IV-F-2)\n",
      Spread(insp_a), Spread(insp_b), Spread(insp_c), divergence);

  exp::CaseResult summary;
  summary.label = table.prefix + "/" + dataset.name + "/i" +
                  std::to_string(item);
  summary.scenario = table.prefix;
  summary.params.Set("item", obs::Json::Int(item));
  summary.params.Set("user_a", obs::Json::Int(user_a));
  summary.params.Set("user_b", obs::Json::Int(user_b));
  summary.metrics.Set("spread_no_guidance", obs::Json::Double(Spread(insp_a)));
  summary.metrics.Set("spread_user_a", obs::Json::Double(Spread(insp_b)));
  summary.metrics.Set("spread_user_b", obs::Json::Double(Spread(insp_c)));
  summary.metrics.Set("l1_divergence", obs::Json::Double(divergence));
  return {summary};
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.DefineString("table", "", "table or figure to reproduce");
  flags.DefineInt64("trials", 1, "repeated trials (split seed x init seed)");
  flags.DefineInt64("epochs", 0, "override max epochs (0 = preset default)");
  flags.DefineInt64("seed", 17, "base random seed");
  flags.DefineDouble("scale", 1.0, "dataset scale factor");
  flags.DefineInt64("max_eval_users", 100,
                    "users sampled for Top-K evaluation");
  flags.DefineString("datasets", "",
                     "comma-separated presets (empty = the table's own)");
  flags.DefineString("models", "", "comma-separated rows (empty = all)");
  flags.DefineString("dataset", "book",
                     "preset of fig5_case_study and fig6_corruption");
  flags.DefineInt64("max_depth", 3, "largest L table11_depth sweeps");
  flags.DefineInt64("item", 1, "fig5_case_study target item id");
  flags.DefineInt64("user_a", 0, "fig5_case_study first target user id");
  flags.DefineInt64("user_b", 1, "fig5_case_study second target user id");
  flags.DefineBool("verbose", false, "log per-epoch progress");
  flags.DefineString("out", exp::kDefaultArtifactDir,
                     "artifact output directory (empty = skip)");
  flags.DefineBool("overwrite", false,
                   "replace an existing BENCH_*.json artifact");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }

  const std::vector<Table> tables = PaperTables(flags);
  const auto found =
      std::find_if(tables.begin(), tables.end(), [&](const Table& t) {
        return t.name == flags.GetString("table");
      });
  if (found == tables.end()) {
    std::fprintf(stderr, "unknown --table \"%s\"; valid tables:\n",
                 flags.GetString("table").c_str());
    for (const Table& t : tables) {
      std::fprintf(stderr, "  %s\n", t.name.c_str());
    }
    return 1;
  }
  Table table = *found;
  if (!flags.GetString("models").empty()) {
    table.variants = Split(flags.GetString("models"), ',');
  }
  // A CG-KGR variant table has no rows beyond its own.
  for (const std::string& label : table.variants) {
    if (table.edit && std::find(found->variants.begin(), found->variants.end(),
                                label) == found->variants.end()) {
      std::fprintf(stderr, "--models: %s is not a row of %s\n", label.c_str(),
                   table.name.c_str());
      return 1;
    }
  }
  if (!table.fixed_dataset && !flags.GetString("datasets").empty()) {
    table.datasets = flags.GetString("datasets");
  }

  std::fputs(table.title.c_str(), stdout);
  const std::vector<exp::CaseResult> rows =
      table.print == nullptr
          ? RunCaseStudy(table, flags)
          : RunTable(table, flags);

  const std::string out_dir = flags.GetString("out");
  if (out_dir.empty()) return 0;
  Result<std::string> path = exp::PublishArtifact(
      table.name, rows, out_dir, flags.GetBool("overwrite"));
  if (!path.ok()) {
    std::fprintf(stderr, "artifact: %s\n", path.status().ToString().c_str());
    return 1;
  }
  std::printf("artifact written to %s\n", path.value().c_str());
  return 0;
}

}  // namespace
}  // namespace cgkgr

int main(int argc, char** argv) { return cgkgr::Main(argc, argv); }
