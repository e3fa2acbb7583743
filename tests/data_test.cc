// Tests for src/data: dataset splitting, negative/CTR sampling, the
// synthetic world-model generator (structure + informativeness properties),
// presets, KG corruption, and TSV round-tripping.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "data/corruption.h"
#include "data/dataset.h"
#include "data/io.h"
#include "data/presets.h"
#include "data/synthetic.h"

namespace cgkgr {
namespace data {
namespace {

SyntheticConfig SmallConfig() {
  SyntheticConfig config;
  config.name = "tiny";
  config.seed = 99;
  config.num_users = 40;
  config.num_items = 60;
  config.interactions_per_user = 8.0;
  config.num_relations = 5;
  config.num_informative_relations = 3;
  config.triplets_per_item = 5.0;
  config.informative_ratio = 0.6;
  config.entities_per_relation_pool = 10;
  config.num_noise_entities = 30;
  config.second_level_pool = 12;
  return config;
}

TEST(DatasetTest, SplitIsDisjointAndComplete) {
  Dataset dataset;
  dataset.num_users = 10;
  dataset.num_items = 50;
  std::vector<graph::Interaction> interactions;
  for (int64_t u = 0; u < 10; ++u) {
    for (int64_t i = 0; i < 10; ++i) interactions.push_back({u, (u + i) % 50});
  }
  Rng rng(1);
  dataset.SplitInteractions(interactions, &rng);
  EXPECT_EQ(dataset.NumInteractions(), 100);
  EXPECT_EQ(dataset.train.size(), 60u);
  EXPECT_EQ(dataset.eval.size(), 20u);
  EXPECT_EQ(dataset.test.size(), 20u);
  // Multiset union equals the input.
  std::multiset<std::pair<int64_t, int64_t>> original;
  for (const auto& x : interactions) original.insert({x.user, x.item});
  std::multiset<std::pair<int64_t, int64_t>> rebuilt;
  for (const auto* split : {&dataset.train, &dataset.eval, &dataset.test}) {
    for (const auto& x : *split) rebuilt.insert({x.user, x.item});
  }
  EXPECT_EQ(original, rebuilt);
}

TEST(DatasetTest, BuildPositivesSortedPerUser) {
  Dataset dataset;
  dataset.num_users = 3;
  dataset.num_items = 10;
  dataset.train = {{0, 5}, {0, 2}, {2, 9}};
  const auto positives = dataset.BuildTrainPositives();
  EXPECT_EQ(positives[0], (std::vector<int64_t>{2, 5}));
  EXPECT_TRUE(positives[1].empty());
  EXPECT_EQ(positives[2], (std::vector<int64_t>{9}));
}

TEST(DatasetTest, SampleNegativeAvoidsPositives) {
  std::vector<std::vector<int64_t>> positives = {{0, 1, 2, 3, 4, 5, 6, 7}};
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const int64_t item = SampleNegativeItem(positives, 0, 10, &rng);
    EXPECT_TRUE(item == 8 || item == 9);
  }
}

TEST(DatasetTest, SampleNegativeDegenerateUser) {
  // User interacted with everything: falls back to a uniform item.
  std::vector<std::vector<int64_t>> positives = {{0, 1, 2}};
  Rng rng(3);
  const int64_t item = SampleNegativeItem(positives, 0, 3, &rng);
  EXPECT_GE(item, 0);
  EXPECT_LT(item, 3);
}

TEST(DatasetTest, SampleNegativeSaturatedUserIsBoundedAndExact) {
  // Regression: a user with 999 of 1000 items positive made the unbounded
  // rejection loop draw ~1000 times per call. The loop is now capped and
  // falls back to a complement scan, which must still return the single
  // true negative every time.
  std::vector<int64_t> user_positives;
  for (int64_t i = 0; i < 1000; ++i) {
    if (i != 617) user_positives.push_back(i);
  }
  std::vector<std::vector<int64_t>> positives = {std::move(user_positives)};
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    EXPECT_EQ(SampleNegativeItem(positives, 0, 1000, &rng), 617);
  }
}

TEST(DatasetTest, SampleNegativeHandlesDuplicatePositives) {
  // Duplicates in the positives list (the same (user, item) pair recorded
  // by multiple splits) inflate positives.size(); the complement-scan
  // fallback must count *unique* positives and skip duplicates during its
  // gap walk, or it could return a positive. Negatives here are {1, 4}.
  std::vector<std::vector<int64_t>> positives = {{0, 0, 2, 3}};
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int64_t item = SampleNegativeItem(positives, 0, 5, &rng);
    EXPECT_TRUE(item == 1 || item == 4) << item;
  }
}

TEST(DatasetTest, CtrExamplesBalanced) {
  Dataset dataset;
  dataset.num_users = 4;
  dataset.num_items = 20;
  dataset.test = {{0, 1}, {1, 2}, {2, 3}};
  const auto positives = dataset.BuildAllPositives();
  Rng rng(4);
  const auto examples =
      MakeCtrExamples(dataset.test, positives, dataset.num_items, &rng);
  ASSERT_EQ(examples.size(), 6u);
  int pos = 0;
  for (const auto& e : examples) pos += e.label > 0.5f ? 1 : 0;
  EXPECT_EQ(pos, 3);
  // Negatives are true negatives.
  for (const auto& e : examples) {
    if (e.label < 0.5f) {
      const auto& p = positives[static_cast<size_t>(e.user)];
      EXPECT_FALSE(std::binary_search(p.begin(), p.end(), e.item));
    }
  }
}

// --- synthetic generator ---

TEST(SyntheticTest, DeterministicPerSeed) {
  const SyntheticConfig config = SmallConfig();
  const Dataset a = GenerateSyntheticDataset(config, 7);
  const Dataset b = GenerateSyntheticDataset(config, 7);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].user, b.train[i].user);
    EXPECT_EQ(a.train[i].item, b.train[i].item);
  }
  ASSERT_EQ(a.kg.size(), b.kg.size());
}

TEST(SyntheticTest, SplitSeedOnlyChangesSplit) {
  const SyntheticConfig config = SmallConfig();
  const Dataset a = GenerateSyntheticDataset(config, 7);
  const Dataset b = GenerateSyntheticDataset(config, 8);
  EXPECT_EQ(a.NumInteractions(), b.NumInteractions());
  ASSERT_EQ(a.kg.size(), b.kg.size());
  for (size_t i = 0; i < a.kg.size(); ++i) {
    EXPECT_EQ(a.kg[i].tail, b.kg[i].tail);
  }
}

TEST(SyntheticTest, IdsInRange) {
  const Dataset d = GenerateSyntheticDataset(SmallConfig(), 7);
  for (const auto* split : {&d.train, &d.eval, &d.test}) {
    for (const auto& x : *split) {
      EXPECT_GE(x.user, 0);
      EXPECT_LT(x.user, d.num_users);
      EXPECT_GE(x.item, 0);
      EXPECT_LT(x.item, d.num_items);
    }
  }
  for (const auto& t : d.kg) {
    EXPECT_GE(t.head, 0);
    EXPECT_LT(t.head, d.num_entities);
    EXPECT_GE(t.tail, 0);
    EXPECT_LT(t.tail, d.num_entities);
    EXPECT_GE(t.relation, 0);
    EXPECT_LT(t.relation, d.num_relations);
  }
}

TEST(SyntheticTest, EveryItemHasAtLeastOneTriplet) {
  const Dataset d = GenerateSyntheticDataset(SmallConfig(), 7);
  std::set<int64_t> heads;
  for (const auto& t : d.kg) heads.insert(t.head);
  for (int64_t i = 0; i < d.num_items; ++i) {
    EXPECT_TRUE(heads.count(i)) << "item " << i << " has no KG triplet";
  }
}

TEST(SyntheticTest, TripletsPerItemNearConfig) {
  SyntheticConfig config = SmallConfig();
  config.triplets_per_item = 9.0;
  config.chain_triplets_per_entity = 0.0;  // only item triplets
  const Dataset d = GenerateSyntheticDataset(config, 7);
  EXPECT_NEAR(d.TripletsPerItem(), 9.0, 0.5);
}

TEST(SyntheticTest, InteractionVolumeNearConfig) {
  const SyntheticConfig config = SmallConfig();
  const Dataset d = GenerateSyntheticDataset(config, 7);
  const double per_user = static_cast<double>(d.NumInteractions()) /
                          static_cast<double>(d.num_users);
  EXPECT_GT(per_user, config.interactions_per_user * 0.5);
  EXPECT_LT(per_user, config.interactions_per_user * 1.5);
}

TEST(SyntheticTest, NoDuplicateItemsPerUser) {
  const Dataset d = GenerateSyntheticDataset(SmallConfig(), 7);
  std::set<std::pair<int64_t, int64_t>> seen;
  for (const auto* split : {&d.train, &d.eval, &d.test}) {
    for (const auto& x : *split) {
      EXPECT_TRUE(seen.insert({x.user, x.item}).second)
          << "duplicate interaction (" << x.user << ", " << x.item << ")";
    }
  }
}

TEST(SyntheticTest, InformativeTripletsShareEntitiesAcrossSimilarItems) {
  // With informative_ratio = 1 and a small pool, entity reuse must be high
  // (that sharing *is* the signal); with ratio 0 entities are random noise.
  SyntheticConfig config = SmallConfig();
  config.chain_triplets_per_entity = 0.0;
  config.informative_ratio = 1.0;
  const Dataset informative = GenerateSyntheticDataset(config, 7);
  config.informative_ratio = 0.0;
  const Dataset noisy = GenerateSyntheticDataset(config, 7);
  auto distinct_tails = [](const Dataset& d) {
    std::set<int64_t> tails;
    for (const auto& t : d.kg) tails.insert(t.tail);
    return tails.size();
  };
  EXPECT_LT(distinct_tails(informative), distinct_tails(noisy));
}

// --- presets ---

TEST(PresetTest, AllPresetsGenerate) {
  for (const auto& name : PresetNames()) {
    const Preset preset = GetPreset(name, /*scale=*/0.3);
    const Dataset d = GenerateSyntheticDataset(preset.data, 1);
    EXPECT_GT(d.num_users, 0);
    EXPECT_GT(d.num_items, 0);
    EXPECT_FALSE(d.kg.empty());
    EXPECT_EQ(d.name, name);
  }
}

TEST(PresetTest, KgRichnessOrderingMatchesPaper) {
  // Paper Table II: music < book < movie < restaurant in triplets/item.
  double previous = 0.0;
  for (const auto& name : PresetNames()) {
    const Preset preset = GetPreset(name);
    const Dataset d = GenerateSyntheticDataset(preset.data, 1);
    EXPECT_GT(d.TripletsPerItem(), previous)
        << name << " should be KG-richer than its predecessor";
    previous = d.TripletsPerItem();
  }
}

TEST(PresetTest, ScaleChangesPopulation) {
  const Preset small = GetPreset("music", 0.5);
  const Preset big = GetPreset("music", 2.0);
  EXPECT_LT(small.data.num_users, big.data.num_users);
  EXPECT_LT(small.data.num_items, big.data.num_items);
}

// --- corruption ---

TEST(CorruptionTest, ZeroRatioIsIdentity) {
  const Dataset d = GenerateSyntheticDataset(SmallConfig(), 7);
  Rng rng(5);
  const Dataset c = CorruptKnowledgeGraph(d, 0.0, &rng);
  ASSERT_EQ(c.kg.size(), d.kg.size());
  for (size_t i = 0; i < d.kg.size(); ++i) {
    EXPECT_EQ(c.kg[i].tail, d.kg[i].tail);
    EXPECT_EQ(c.kg[i].relation, d.kg[i].relation);
  }
}

TEST(CorruptionTest, RatioOfTripletsChanged) {
  const Dataset d = GenerateSyntheticDataset(SmallConfig(), 7);
  Rng rng(6);
  const Dataset c = CorruptKnowledgeGraph(d, 0.4, &rng);
  ASSERT_EQ(c.kg.size(), d.kg.size());
  size_t changed = 0;
  for (size_t i = 0; i < d.kg.size(); ++i) {
    EXPECT_EQ(c.kg[i].head, d.kg[i].head);  // heads never corrupted
    if (c.kg[i].tail != d.kg[i].tail ||
        c.kg[i].relation != d.kg[i].relation) {
      ++changed;
    }
  }
  const double ratio =
      static_cast<double>(changed) / static_cast<double>(d.kg.size());
  EXPECT_NEAR(ratio, 0.4, 0.02);
}

TEST(CorruptionTest, ExactlyOneFieldChangesPerCorruptedTriplet) {
  const Dataset d = GenerateSyntheticDataset(SmallConfig(), 7);
  Rng rng(7);
  const Dataset c = CorruptKnowledgeGraph(d, 1.0, &rng);
  for (size_t i = 0; i < d.kg.size(); ++i) {
    const bool tail_changed = c.kg[i].tail != d.kg[i].tail;
    const bool rel_changed = c.kg[i].relation != d.kg[i].relation;
    EXPECT_TRUE(tail_changed != rel_changed)
        << "exactly one of tail/relation must change";
  }
}

// --- io ---

TEST(IoTest, SaveLoadRoundTrip) {
  const Dataset d = GenerateSyntheticDataset(SmallConfig(), 7);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "cgkgr_io_test").string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  Result<Dataset> loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& l = loaded.value();
  EXPECT_EQ(l.name, d.name);
  EXPECT_EQ(l.num_users, d.num_users);
  EXPECT_EQ(l.num_entities, d.num_entities);
  ASSERT_EQ(l.train.size(), d.train.size());
  for (size_t i = 0; i < d.train.size(); ++i) {
    EXPECT_EQ(l.train[i].user, d.train[i].user);
    EXPECT_EQ(l.train[i].item, d.train[i].item);
  }
  ASSERT_EQ(l.kg.size(), d.kg.size());
  EXPECT_EQ(l.kg.back().tail, d.kg.back().tail);
  std::filesystem::remove_all(dir);
}

TEST(IoTest, LoadRejectsOutOfRangeIds) {
  // Each case appends one line to a freshly saved dataset; the load must
  // fail with InvalidArgument naming that file and line instead of handing
  // out-of-range IDs to the models.
  const Dataset d = GenerateSyntheticDataset(SmallConfig(), 7);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "cgkgr_io_range").string();
  struct Case {
    std::string file;
    std::string line;
    size_t existing_lines;
  };
  const std::string users = std::to_string(d.num_users);
  const std::string items = std::to_string(d.num_items);
  const std::string entities = std::to_string(d.num_entities);
  const std::string relations = std::to_string(d.num_relations);
  const std::vector<Case> cases = {
      {"train.tsv", users + "\t0", d.train.size()},
      {"train.tsv", "0\t" + items, d.train.size()},
      {"train.tsv", "-1\t0", d.train.size()},
      {"eval.tsv", "0\t" + items, d.eval.size()},
      {"test.tsv", users + "\t0", d.test.size()},
      {"kg.tsv", entities + "\t0\t0", d.kg.size()},
      {"kg.tsv", "0\t" + relations + "\t0", d.kg.size()},
      {"kg.tsv", "0\t0\t" + entities, d.kg.size()},
  };
  for (const Case& c : cases) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(SaveDataset(d, dir).ok());
    {
      std::ofstream out(dir + "/" + c.file, std::ios::app);
      out << c.line << '\n';
    }
    Result<Dataset> loaded = LoadDataset(dir);
    ASSERT_FALSE(loaded.ok()) << c.file << ": " << c.line;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    const std::string where =
        c.file + ":" + std::to_string(c.existing_lines + 1) + ":";
    EXPECT_NE(loaded.status().ToString().find(where), std::string::npos)
        << loaded.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

TEST(IoTest, LoadMissingDirectoryFails) {
  Result<Dataset> loaded = LoadDataset("/nonexistent/cgkgr");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace data
}  // namespace cgkgr
