#include "baselines/nfm.h"

#include "autograd/ops.h"
#include "common/macros.h"
#include "models/trainer_util.h"

namespace cgkgr {
namespace baselines {

namespace {
using autograd::Variable;
}  // namespace

Nfm::Nfm(const data::PresetHyperParams& hparams) : hparams_(hparams) {}

Status Nfm::Fit(const data::Dataset& dataset,
                const models::TrainOptions& options) {
  const int64_t d = hparams_.embedding_dim;
  store_ = {};
  Rng init_rng(options.seed ^ 0x4F4D4E464D000000ULL);
  user_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "user_emb", dataset.num_users, d, &init_rng);
  item_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "item_emb", dataset.num_items, d, &init_rng);
  user_bias_ = store_.Create("user_bias", {dataset.num_users, 1},
                             nn::Init::kZeros, &init_rng);
  item_bias_ = store_.Create("item_bias", {dataset.num_items, 1},
                             nn::Init::kZeros, &init_rng);
  global_bias_ = store_.Create("global_bias", {1}, nn::Init::kZeros,
                               &init_rng);
  hidden_ = std::make_unique<nn::Dense>(&store_, "hidden", d, d,
                                        nn::Activation::kRelu, &init_rng);
  output_ = std::make_unique<nn::Dense>(&store_, "output", d, 1,
                                        nn::Activation::kIdentity, &init_rng);

  auto loss_fn = [&](const models::TrainBatch& batch, Rng* /*rng*/) {
    std::vector<int64_t> users = batch.users;
    users.insert(users.end(), batch.users.begin(), batch.users.end());
    std::vector<int64_t> items = batch.positive_items;
    items.insert(items.end(), batch.negative_items.begin(),
                 batch.negative_items.end());
    Variable scores = Forward(users, items);
    std::vector<float> labels(users.size(), 0.0f);
    std::fill(labels.begin(),
              labels.begin() + static_cast<int64_t>(batch.users.size()),
              1.0f);
    return autograd::BCEWithLogits(scores, std::move(labels));
  };
  return Train(dataset, options,
               {.learning_rate = hparams_.learning_rate, .l2 = hparams_.l2},
               loss_fn);
}

Variable Nfm::Forward(const std::vector<int64_t>& users,
                      const std::vector<int64_t>& items) {
  const int64_t n = static_cast<int64_t>(users.size());
  Variable eu = user_table_->Lookup(users);
  Variable ei = item_table_->Lookup(items);
  // Bi-interaction pooling of {e_u, e_i} = e_u . e_i (Hadamard).
  Variable interaction = autograd::Mul(eu, ei);
  Variable deep = output_->Apply(hidden_->Apply(interaction));  // (n, 1)
  Variable bu = autograd::Gather(user_bias_, users);            // (n, 1)
  Variable bi = autograd::Gather(item_bias_, items);            // (n, 1)
  Variable sum = autograd::Add(autograd::Add(deep, bu), bi);
  Variable flat = autograd::Reshape(sum, {n});
  // Broadcast the scalar global bias by repeating its row.
  Variable w0 = autograd::Reshape(
      autograd::RowRepeat(autograd::Reshape(global_bias_, {1, 1}), n), {n});
  return autograd::Add(flat, w0);
}

void Nfm::ScorePairs(const std::vector<int64_t>& users,
                     const std::vector<int64_t>& items,
                     std::vector<float>* out) {
  CGKGR_CHECK_MSG(prepared_, "ScorePairs before Fit");
  CGKGR_CHECK(users.size() == items.size() && out != nullptr);
  autograd::NoGradGuard no_grad;
  Variable scores = Forward(users, items);
  out->assign(scores.value().data(),
              scores.value().data() + scores.value().size());
}

}  // namespace baselines
}  // namespace cgkgr
