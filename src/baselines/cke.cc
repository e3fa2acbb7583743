#include "baselines/cke.h"

#include "autograd/ops.h"
#include "common/macros.h"
#include "models/trainer_util.h"

namespace cgkgr {
namespace baselines {

namespace {
using autograd::Variable;

/// Weight of the TransR loss relative to the recommendation loss.
constexpr float kKgLossWeight = 0.5f;
}  // namespace

Cke::Cke(const data::PresetHyperParams& hparams) : hparams_(hparams) {}

Status Cke::Fit(const data::Dataset& dataset,
                const models::TrainOptions& options) {
  if (dataset.kg.empty()) {
    return Status::InvalidArgument("CKE requires a knowledge graph");
  }
  const int64_t d = hparams_.embedding_dim;
  num_entities_ = dataset.num_entities;
  kg_triplets_ = dataset.kg;
  store_ = {};
  Rng init_rng(options.seed ^ 0xCCE0000000000001ULL);
  user_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "user_emb", dataset.num_users, d, &init_rng);
  item_offset_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "item_offset", dataset.num_items, d, &init_rng);
  entity_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "entity_emb", dataset.num_entities, d, &init_rng);
  relation_vectors_ = store_.Create("relation_vec", {dataset.num_relations, d},
                                    nn::Init::kXavierUniform, &init_rng);
  relation_matrices_ = store_.Create("relation_mat",
                                     {dataset.num_relations, d, d},
                                     nn::Init::kXavierUniform, &init_rng);

  auto loss_fn = [&](const models::TrainBatch& batch, Rng* rng) {
    const size_t b = batch.users.size();
    // Recommendation part: BCE over positives and negatives.
    std::vector<int64_t> users = batch.users;
    users.insert(users.end(), batch.users.begin(), batch.users.end());
    std::vector<int64_t> items = batch.positive_items;
    items.insert(items.end(), batch.negative_items.begin(),
                 batch.negative_items.end());
    Variable scores =
        autograd::RowDot(user_table_->Lookup(users), ItemRepr(items));
    std::vector<float> labels(users.size(), 0.0f);
    std::fill(labels.begin(), labels.begin() + static_cast<int64_t>(b),
              1.0f);
    Variable loss = autograd::BCEWithLogits(scores, std::move(labels));

    // TransR part on a same-size sample of triplets with corrupted
    // tails as negatives.
    std::vector<int64_t> heads;
    std::vector<int64_t> rels;
    std::vector<int64_t> tails;
    std::vector<int64_t> corrupt_tails;
    for (size_t i = 0; i < b; ++i) {
      const graph::Triplet& t =
          kg_triplets_[rng->UniformInt(kg_triplets_.size())];
      heads.push_back(t.head);
      rels.push_back(t.relation);
      tails.push_back(t.tail);
      corrupt_tails.push_back(static_cast<int64_t>(
          rng->UniformInt(static_cast<uint64_t>(num_entities_))));
    }
    Variable pos_distance = TransRDistance(heads, rels, tails);
    Variable neg_distance = TransRDistance(heads, rels, corrupt_tails);
    // Margin-free soft ranking loss: softplus(d_pos - d_neg).
    Variable kg_loss = autograd::BPRLoss(neg_distance, pos_distance);
    return autograd::Add(loss, autograd::Scale(kg_loss, kKgLossWeight));
  };
  return Train(dataset, options,
               {.learning_rate = hparams_.learning_rate, .l2 = hparams_.l2},
               loss_fn);
}

Variable Cke::ItemRepr(const std::vector<int64_t>& items) {
  // v_i = eta_i + e_i (structural embedding), Zhang et al. Eq. (6).
  return autograd::Add(item_offset_table_->Lookup(items),
                       entity_table_->Lookup(items));
}

Variable Cke::TransRDistance(const std::vector<int64_t>& heads,
                             const std::vector<int64_t>& relations,
                             const std::vector<int64_t>& tails) {
  Variable h = entity_table_->Lookup(heads);
  Variable t = entity_table_->Lookup(tails);
  Variable h_proj = autograd::RelationMatMul(h, relations, relation_matrices_);
  Variable t_proj = autograd::RelationMatMul(t, relations, relation_matrices_);
  Variable r = autograd::Gather(relation_vectors_, relations);
  Variable diff = autograd::Sub(autograd::Add(h_proj, r), t_proj);
  return autograd::RowDot(diff, diff);
}

void Cke::ScorePairs(const std::vector<int64_t>& users,
                     const std::vector<int64_t>& items,
                     std::vector<float>* out) {
  CGKGR_CHECK_MSG(prepared_, "ScorePairs before Fit");
  CGKGR_CHECK(users.size() == items.size() && out != nullptr);
  autograd::NoGradGuard no_grad;
  Variable scores =
      autograd::RowDot(user_table_->Lookup(users), ItemRepr(items));
  out->assign(scores.value().data(),
              scores.value().data() + scores.value().size());
}

}  // namespace baselines
}  // namespace cgkgr
