// Tests for the eight baselines: every registered model trains on a small
// synthetic dataset, learns above chance, scores finite values, and the
// registry exposes the paper's model list.

#include <gtest/gtest.h>

#include <cmath>

#include "data/corruption.h"
#include "data/synthetic.h"
#include "eval/protocol.h"
#include "models/registry.h"

namespace cgkgr {
namespace models {
namespace {

data::Dataset TestDataset() {
  data::SyntheticConfig config;
  config.name = "baseline-test";
  config.seed = 88;
  config.num_users = 60;
  config.num_items = 80;
  config.interactions_per_user = 10.0;
  config.num_relations = 6;
  config.num_informative_relations = 4;
  config.triplets_per_item = 6.0;
  config.informative_ratio = 0.7;
  config.entities_per_relation_pool = 14;
  config.num_noise_entities = 50;
  config.second_level_pool = 16;
  return data::GenerateSyntheticDataset(config, 3);
}

data::PresetHyperParams SmallHparams() {
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  hparams.depth = 2;
  hparams.user_sample_size = 4;
  hparams.item_sample_size = 3;
  hparams.kg_sample_size = 3;
  hparams.num_heads = 2;
  hparams.learning_rate = 1e-2f;
  return hparams;
}

TrainOptions QuickTrain(int64_t epochs = 12) {
  TrainOptions options;
  options.max_epochs = epochs;
  options.patience = epochs;
  options.batch_size = 64;
  options.seed = 21;
  return options;
}

double TestAuc(RecommenderModel* model, const data::Dataset& d) {
  Rng rng(31);
  const auto positives = d.BuildAllPositives();
  const auto examples =
      data::MakeCtrExamples(d.test, positives, d.num_items, &rng);
  return eval::EvaluateCtr(model, examples).auc;
}

TEST(RegistryTest, ModelListMatchesPaper) {
  const auto names = AllModelNames();
  ASSERT_EQ(names.size(), 9u);
  EXPECT_EQ(names.front(), "BPRMF");
  EXPECT_EQ(names.back(), "CG-KGR");
  EXPECT_EQ(CfModelNames().size(), 2u);
  EXPECT_EQ(KgModelNames().size(), 7u);
}

TEST(RegistryTest, CreatedNamesRoundTrip) {
  const auto hparams = SmallHparams();
  for (const auto& name : AllModelNames()) {
    auto model = CreateModel(name, hparams);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), name);
  }
}

// Every model trains end-to-end and learns something.
class AllModelsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllModelsTest, TrainsLearnsAndScores) {
  const data::Dataset d = TestDataset();
  auto model = CreateModel(GetParam(), SmallHparams());
  ASSERT_TRUE(model->Fit(d, QuickTrain()).ok());

  // Above-chance test AUC (weak bound; baselines vary in strength).
  EXPECT_GT(TestAuc(model.get(), d), 0.58) << GetParam();

  // Scores finite and shaped right.
  std::vector<float> scores;
  model->ScorePairs({0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}, &scores);
  ASSERT_EQ(scores.size(), 5u);
  for (float s : scores) EXPECT_TRUE(std::isfinite(s)) << GetParam();

  // Stats recorded.
  EXPECT_GE(model->train_stats().epochs_run, 1);
  EXPECT_FALSE(model->train_stats().epoch_losses.empty());
}

// Scoring is a pure function of the trained model: a second identical call
// returns the first call's scores bit for bit, so eval metrics and serve
// snapshots do not depend on what was scored before.
TEST_P(AllModelsTest, RepeatedScorePairsAreIdentical) {
  const data::Dataset d = TestDataset();
  auto model = CreateModel(GetParam(), SmallHparams());
  ASSERT_TRUE(model->Fit(d, QuickTrain(2)).ok());
  std::vector<int64_t> users;
  std::vector<int64_t> items;
  for (int64_t u = 0; u < d.num_users; ++u) {
    for (int64_t i = 0; i < 8; ++i) {
      users.push_back(u);
      items.push_back((u + 7 * i) % d.num_items);
    }
  }
  std::vector<float> first;
  std::vector<float> second;
  model->ScorePairs(users, items, &first);
  model->ScorePairs(users, items, &second);
  EXPECT_EQ(first, second) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Registry, AllModelsTest,
                         ::testing::ValuesIn(AllModelNames()));

TEST(BaselineBehaviorTest, KgFreeModelsIgnoreKgCorruption) {
  // BPRMF must produce identical results with and without the KG present.
  data::Dataset d = TestDataset();
  auto model_a = CreateModel("BPRMF", SmallHparams());
  ASSERT_TRUE(model_a->Fit(d, QuickTrain(3)).ok());
  data::Dataset no_kg = d;
  no_kg.kg.clear();
  auto model_b = CreateModel("BPRMF", SmallHparams());
  ASSERT_TRUE(model_b->Fit(no_kg, QuickTrain(3)).ok());
  std::vector<float> a;
  std::vector<float> b;
  model_a->ScorePairs({0, 1, 2}, {3, 4, 5}, &a);
  model_b->ScorePairs({0, 1, 2}, {3, 4, 5}, &b);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(BaselineBehaviorTest, KgModelsRejectEmptyKg) {
  data::Dataset d = TestDataset();
  d.kg.clear();
  for (const std::string name : {"CKE", "RippleNet", "KGCN", "KGNN-LS",
                                 "KGAT", "CKAN"}) {
    auto model = CreateModel(name, SmallHparams());
    EXPECT_FALSE(model->Fit(d, QuickTrain(1)).ok()) << name;
  }
}

TEST(BaselineBehaviorTest, KgnnLsLossExceedsKgcnLoss) {
  // The label-smoothness term adds a non-negative penalty.
  const data::Dataset d = TestDataset();
  auto kgcn = CreateModel("KGCN", SmallHparams());
  auto kgnn = CreateModel("KGNN-LS", SmallHparams());
  ASSERT_TRUE(kgcn->Fit(d, QuickTrain(2)).ok());
  ASSERT_TRUE(kgnn->Fit(d, QuickTrain(2)).ok());
  EXPECT_GT(kgnn->train_stats().epoch_losses[0],
            kgcn->train_stats().epoch_losses[0]);
}

TEST(BaselineBehaviorTest, KgModelsReactToKgContent) {
  // Training the same KG model on a clean vs heavily corrupted KG must
  // produce different parameters (the KG actually participates).
  const data::Dataset clean = TestDataset();
  Rng rng(91);
  const data::Dataset corrupted =
      data::CorruptKnowledgeGraph(clean, 0.8, &rng);
  for (const std::string name : {"RippleNet", "KGCN", "CKAN", "KGAT"}) {
    std::vector<float> clean_scores;
    std::vector<float> corrupt_scores;
    {
      auto model = CreateModel(name, SmallHparams());
      ASSERT_TRUE(model->Fit(clean, QuickTrain(3)).ok());
      model->ScorePairs({0, 1, 2, 3}, {4, 5, 6, 7}, &clean_scores);
    }
    {
      auto model = CreateModel(name, SmallHparams());
      ASSERT_TRUE(model->Fit(corrupted, QuickTrain(3)).ok());
      model->ScorePairs({0, 1, 2, 3}, {4, 5, 6, 7}, &corrupt_scores);
    }
    float diff = 0.0f;
    for (size_t i = 0; i < clean_scores.size(); ++i) {
      diff += std::abs(clean_scores[i] - corrupt_scores[i]);
    }
    EXPECT_GT(diff, 1e-6f) << name << " ignored the KG";
  }
}

TEST(BaselineBehaviorTest, TrainingImprovesOverInitialization) {
  // One epoch must beat an untrained model for every registry entry.
  const data::Dataset d = TestDataset();
  for (const auto& name : AllModelNames()) {
    auto trained = CreateModel(name, SmallHparams());
    ASSERT_TRUE(trained->Fit(d, QuickTrain(8)).ok());
    auto barely = CreateModel(name, SmallHparams());
    TrainOptions one_epoch = QuickTrain(1);
    ASSERT_TRUE(barely->Fit(d, one_epoch).ok());
    EXPECT_GE(TestAuc(trained.get(), d) + 0.03, TestAuc(barely.get(), d))
        << name;
  }
}

TEST(BaselineBehaviorTest, DeterministicPerSeed) {
  const data::Dataset d = TestDataset();
  for (const std::string name : {"BPRMF", "KGCN", "CKAN"}) {
    std::vector<float> first;
    std::vector<float> second;
    for (auto* out : {&first, &second}) {
      auto model = CreateModel(name, SmallHparams());
      ASSERT_TRUE(model->Fit(d, QuickTrain(2)).ok());
      model->ScorePairs({0, 1, 2}, {3, 4, 5}, out);
    }
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_FLOAT_EQ(first[i], second[i]) << name;
    }
  }
}

}  // namespace
}  // namespace models
}  // namespace cgkgr
