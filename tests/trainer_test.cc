// Tests for models/trainer_util and models/parallel_trainer: the shared
// epoch driver and training-loop plumbing every model builds on.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "data/synthetic.h"
#include "models/parallel_trainer.h"
#include "models/registry.h"
#include "models/trainer_util.h"
#include "nn/adam.h"
#include "nn/embedding.h"
#include "nn/parameter.h"

namespace cgkgr {
namespace models {
namespace {

std::vector<graph::Interaction> MakeTrain(int64_t users, int64_t per_user) {
  std::vector<graph::Interaction> train;
  for (int64_t u = 0; u < users; ++u) {
    for (int64_t j = 0; j < per_user; ++j) train.push_back({u, (u + j) % 50});
  }
  return train;
}

/// One shard as the loss saw it: (user, positive, negative) rows.
using ShardRows = std::vector<std::array<int64_t, 3>>;

/// Runs one ParallelTrainer epoch over `train` (50 items) at `lanes` with a
/// loss that records every shard it is handed. Returns the shards sorted:
/// lanes run a batch's shards concurrently, so arrival order is not part of
/// the contract, but which rows share a shard and their negatives are.
std::vector<ShardRows> RecordEpoch(
    const std::vector<graph::Interaction>& train,
    const std::vector<std::vector<int64_t>>& positives, int64_t batch_size,
    int64_t lanes, uint64_t seed) {
  TrainOptions options;
  options.batch_size = batch_size;
  options.num_threads = lanes;
  nn::ParameterStore store;
  Rng init_rng(11);
  nn::EmbeddingTable items(&store, "i", 50, 4, &init_rng);
  nn::AdamOptimizer optimizer(store.parameters(), nn::AdamOptions());
  ParallelTrainer trainer(options, &store, &optimizer);
  Mutex mu;
  std::vector<ShardRows> shards;
  auto loss_fn = [&](const TrainBatch& batch, Rng* /*rng*/) {
    EXPECT_EQ(batch.users.size(), batch.positive_items.size());
    EXPECT_EQ(batch.users.size(), batch.negative_items.size());
    ShardRows rows;
    for (size_t i = 0; i < batch.users.size(); ++i) {
      rows.push_back({batch.users[i], batch.positive_items[i],
                      batch.negative_items[i]});
    }
    {
      MutexLock lock(&mu);
      shards.push_back(std::move(rows));
    }
    autograd::Variable p = items.Lookup(batch.positive_items);
    return autograd::Mean(autograd::Mul(p, p));
  };
  Rng epoch_rng(seed);
  trainer.RunEpoch(train, positives, 50, &epoch_rng, loss_fn);
  std::sort(shards.begin(), shards.end());
  return shards;
}

TEST(ParallelTrainerEpochTest, CoversEveryInteractionExactlyOnce) {
  const auto train = MakeTrain(10, 7);
  const auto positives = data::Dataset::BuildPositives(train, 10);
  std::multiset<std::pair<int64_t, int64_t>> expected;
  for (const auto& x : train) expected.insert({x.user, x.item});
  for (const int64_t lanes : {1, 2}) {
    std::multiset<std::pair<int64_t, int64_t>> seen;
    for (const ShardRows& shard :
         RecordEpoch(train, positives, /*batch_size=*/32, lanes, 1)) {
      EXPECT_FALSE(shard.empty());
      EXPECT_LE(shard.size(), 32u);
      for (const auto& row : shard) seen.insert({row[0], row[1]});
    }
    EXPECT_EQ(seen, expected) << "lanes=" << lanes;
  }
}

TEST(ParallelTrainerEpochTest, NegativesAreTrueNegatives) {
  const auto train = MakeTrain(8, 10);
  const auto positives = data::Dataset::BuildPositives(train, 8);
  for (const int64_t lanes : {1, 2}) {
    for (const ShardRows& shard : RecordEpoch(train, positives, 32, lanes, 2)) {
      for (const auto& row : shard) {
        const auto& p = positives[static_cast<size_t>(row[0])];
        EXPECT_FALSE(std::binary_search(p.begin(), p.end(), row[2]))
            << "lanes=" << lanes << " user " << row[0];
      }
    }
  }
}

TEST(ParallelTrainerEpochTest, ShuffleFollowsEpochRng) {
  const auto train = MakeTrain(10, 10);
  const auto positives = data::Dataset::BuildPositives(train, 10);
  const auto serial = RecordEpoch(train, positives, 32, 1, 3);
  EXPECT_EQ(RecordEpoch(train, positives, 32, 2, 3), serial);
  EXPECT_EQ(RecordEpoch(train, positives, 32, 1, 3), serial);
  EXPECT_NE(RecordEpoch(train, positives, 32, 1, 4), serial);
  EXPECT_NE(RecordEpoch(train, positives, 32, 2, 4), serial);
}

data::Dataset SmallDataset() {
  data::SyntheticConfig config;
  config.name = "trainer-test";
  config.seed = 404;
  config.num_users = 40;
  config.num_items = 50;
  config.interactions_per_user = 8.0;
  config.num_relations = 4;
  config.num_informative_relations = 3;
  config.triplets_per_item = 4.0;
  config.num_noise_entities = 20;
  config.entities_per_relation_pool = 8;
  config.second_level_pool = 8;
  return data::GenerateSyntheticDataset(config, 2);
}

TEST(TrainingLoopTest, RejectsEmptyTrainSplit) {
  data::Dataset d = SmallDataset();
  d.train.clear();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  auto model = CreateModel("BPRMF", hparams);
  TrainOptions options;
  EXPECT_FALSE(model->Fit(d, options).ok());
}

TEST(TrainingLoopTest, RecallStoppingMetricDiffersFromAuc) {
  // Both metrics must drive the loop without error and record a best value.
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  for (const auto metric :
       {EarlyStopMetric::kAuc, EarlyStopMetric::kRecallAt20}) {
    auto model = CreateModel("BPRMF", hparams);
    TrainOptions options;
    options.max_epochs = 4;
    options.patience = 4;
    options.batch_size = 32;
    options.early_stop_metric = metric;
    ASSERT_TRUE(model->Fit(d, options).ok());
    EXPECT_GT(model->train_stats().best_eval_metric, 0.0);
    EXPECT_LE(model->train_stats().best_eval_metric, 1.0);
  }
}

TEST(TrainingLoopTest, LossCurveLengthMatchesEpochsRun) {
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  auto model = CreateModel("BPRMF", hparams);
  TrainOptions options;
  options.max_epochs = 5;
  options.patience = 5;
  options.batch_size = 32;
  ASSERT_TRUE(model->Fit(d, options).ok());
  EXPECT_EQ(static_cast<int64_t>(model->train_stats().epoch_losses.size()),
            model->train_stats().epochs_run);
}

TEST(TrainingLoopTest, VerboseLogsStructuredKvLines) {
  // Log assertions go through LogCapture, not stderr scraping.
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  auto model = CreateModel("BPRMF", hparams);
  TrainOptions options;
  options.max_epochs = 2;
  options.patience = 2;
  options.batch_size = 32;
  options.verbose = true;
  options.run_label = "bprmf-test";
  LogCapture capture;
  ASSERT_TRUE(model->Fit(d, options).ok());
  EXPECT_TRUE(capture.Contains("dataset=trainer-test"));
  EXPECT_TRUE(capture.Contains("model=bprmf-test"));
  EXPECT_TRUE(capture.Contains("epoch=1"));
  EXPECT_TRUE(capture.Contains(" loss="));
  EXPECT_TRUE(capture.Contains(" eval_metric="));
}

TEST(TrainingLoopTest, MetricsJsonlWritesOneRowPerEpoch) {
  const std::string path = ::testing::TempDir() + "/trainer_epochs.jsonl";
  std::remove(path.c_str());
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  auto model = CreateModel("BPRMF", hparams);
  TrainOptions options;
  options.max_epochs = 3;
  options.patience = 3;
  options.batch_size = 32;
  options.metrics_jsonl = path;
  options.run_label = "bprmf";
  ASSERT_TRUE(model->Fit(d, options).ok());
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(static_cast<int64_t>(lines.size()),
            model->train_stats().epochs_run);
  EXPECT_NE(lines[0].find("\"dataset\": \"trainer-test\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"model\": \"bprmf\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"epoch\": 1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"samples_per_sec\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TrainingLoopTest, MetricsJsonlEnvVarSuppliesDefault) {
  // The CGKGR_METRICS_JSONL environment variable is the process-wide
  // default when TrainOptions::metrics_jsonl is empty; it must keep
  // working alongside the TrainOptions redesign.
  const std::string path = ::testing::TempDir() + "/trainer_env.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("CGKGR_METRICS_JSONL", path.c_str(), 1), 0);
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  auto model = CreateModel("BPRMF", hparams);
  TrainOptions options;
  options.max_epochs = 2;
  options.patience = 2;
  options.batch_size = 32;
  const Status status = model->Fit(d, options);
  ASSERT_EQ(unsetenv("CGKGR_METRICS_JSONL"), 0);
  ASSERT_TRUE(status.ok());
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  EXPECT_EQ(static_cast<int64_t>(lines.size()),
            model->train_stats().epochs_run);
  std::remove(path.c_str());
}

// --- parallel trainer ---

TEST(ParallelTrainerTest, BitIdenticalAcrossThreadCountsForModelZoo) {
  // The determinism contract (parallel_trainer.h): for a fixed seed, the
  // loss curve and the trained parameters are bit-identical for every
  // num_threads. Exact equality on doubles/floats is intentional.
  const data::Dataset d = SmallDataset();
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  hparams.depth = 2;
  hparams.user_sample_size = 4;
  hparams.item_sample_size = 3;
  hparams.kg_sample_size = 3;
  hparams.num_heads = 2;
  for (const auto& name : AllModelNames()) {
    std::vector<double> serial_losses;
    std::vector<float> serial_scores;
    for (const int64_t threads : {1, 2, 4}) {
      auto model = CreateModel(name, hparams);
      TrainOptions options;
      options.max_epochs = 2;
      options.patience = 2;
      options.batch_size = 48;  // 3 shards per full batch at 16 rows/shard
      options.seed = 17;
      options.num_threads = threads;
      ASSERT_TRUE(model->Fit(d, options).ok()) << name;
      std::vector<float> scores;
      model->ScorePairs({0, 1, 2, 3}, {5, 6, 7, 8}, &scores);
      if (threads == 1) {
        serial_losses = model->train_stats().epoch_losses;
        serial_scores = scores;
        continue;
      }
      EXPECT_EQ(model->train_stats().epoch_losses, serial_losses)
          << name << " threads=" << threads;
      ASSERT_EQ(scores.size(), serial_scores.size());
      for (size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(scores[i], serial_scores[i])
            << name << " threads=" << threads << " score " << i;
      }
    }
  }
}

TEST(ParallelTrainerTest, GradReductionMatchesSerialUnderHammer) {
  // Direct harness over ParallelTrainer: a BPR matrix-factorization loss,
  // eight epochs, six shards per batch on up to four lanes. Every parameter
  // element must match the serial run exactly. Under TSan (tools/check.sh
  // with CGKGR_CHECK_TSAN=1) this doubles as the concurrency hammer for
  // GradSinkGuard, the shard tasks, and the tree reduction.
  const auto train = MakeTrain(32, 12);
  const auto positives = data::Dataset::BuildPositives(train, 32);

  auto run = [&](int64_t threads) {
    TrainOptions options;
    options.batch_size = 96;  // 6 shards per batch
    options.seed = 7;
    options.num_threads = threads;
    nn::ParameterStore store;
    Rng init_rng(11);
    nn::EmbeddingTable users(&store, "u", 32, 16, &init_rng);
    nn::EmbeddingTable items(&store, "i", 50, 16, &init_rng);
    nn::AdamOptimizer optimizer(store.parameters(), nn::AdamOptions());
    ParallelTrainer trainer(options, &store, &optimizer);
    EXPECT_EQ(trainer.num_threads(), threads);
    auto loss_fn = [&](const TrainBatch& batch, Rng* /*rng*/) {
      autograd::Variable u = users.Lookup(batch.users);
      autograd::Variable p = items.Lookup(batch.positive_items);
      autograd::Variable n = items.Lookup(batch.negative_items);
      return autograd::BPRLoss(autograd::RowDot(u, p),
                               autograd::RowDot(u, n));
    };
    Rng epoch_rng(options.seed);
    std::vector<double> losses;
    for (int epoch = 0; epoch < 8; ++epoch) {
      losses.push_back(
          trainer.RunEpoch(train, positives, 50, &epoch_rng, loss_fn));
    }
    std::vector<float> flat;
    for (const auto& param : store.parameters()) {
      const tensor::Tensor& v = param.value();
      flat.insert(flat.end(), v.data(), v.data() + v.size());
    }
    return std::make_pair(losses, flat);
  };

  const auto serial = run(1);
  EXPECT_GT(serial.first.front(), serial.first.back());  // it learns
  for (const int64_t threads : {2, 4}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, serial.first) << "threads=" << threads;
    ASSERT_EQ(parallel.second.size(), serial.second.size());
    for (size_t i = 0; i < serial.second.size(); ++i) {
      ASSERT_EQ(parallel.second[i], serial.second[i])
          << "threads=" << threads << " param element " << i;
    }
  }
}

}  // namespace
}  // namespace models
}  // namespace cgkgr
