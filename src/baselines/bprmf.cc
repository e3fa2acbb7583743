#include "baselines/bprmf.h"

#include "autograd/ops.h"
#include "common/macros.h"
#include "models/trainer_util.h"
#include "tensor/tensor_ops.h"

namespace cgkgr {
namespace baselines {

BprMf::BprMf(const data::PresetHyperParams& hparams) : hparams_(hparams) {}

Status BprMf::Fit(const data::Dataset& dataset,
                  const models::TrainOptions& options) {
  const int64_t d = hparams_.embedding_dim;
  store_ = {};
  Rng init_rng(options.seed ^ 0xB0B0B0B0B0B0B0B0ULL);
  user_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "user_emb", dataset.num_users, d, &init_rng);
  item_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "item_emb", dataset.num_items, d, &init_rng);

  auto loss_fn = [&](const models::TrainBatch& batch, Rng* /*rng*/) {
    autograd::Variable vu = user_table_->Lookup(batch.users);
    autograd::Variable vpos = item_table_->Lookup(batch.positive_items);
    autograd::Variable vneg = item_table_->Lookup(batch.negative_items);
    return autograd::BPRLoss(autograd::RowDot(vu, vpos),
                             autograd::RowDot(vu, vneg));
  };
  return Train(dataset, options,
               {.learning_rate = hparams_.learning_rate, .l2 = hparams_.l2},
               loss_fn);
}

void BprMf::ScorePairs(const std::vector<int64_t>& users,
                       const std::vector<int64_t>& items,
                       std::vector<float>* out) {
  CGKGR_CHECK_MSG(prepared_, "ScorePairs before Fit");
  CGKGR_CHECK(users.size() == items.size() && out != nullptr);
  // Pure dot products: read the tables directly, no tape needed.
  const tensor::Tensor& u = user_table_->table().value();
  const tensor::Tensor& i = item_table_->table().value();
  const int64_t d = hparams_.embedding_dim;
  out->resize(users.size());
  for (size_t p = 0; p < users.size(); ++p) {
    (*out)[p] = tensor::Dot(d, u.data() + users[p] * d,
                            i.data() + items[p] * d);
  }
}

}  // namespace baselines
}  // namespace cgkgr
