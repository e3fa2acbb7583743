#ifndef CGKGR_BASELINES_BPRMF_H_
#define CGKGR_BASELINES_BPRMF_H_

#include <memory>
#include <string>
#include <vector>

#include "data/presets.h"
#include "models/recommender.h"
#include "nn/embedding.h"

namespace cgkgr {
namespace baselines {

/// BPRMF (Rendle et al., UAI 2009): matrix factorization trained with the
/// Bayesian personalized ranking criterion. The paper's strongest KG-free
/// baseline on several datasets (Sec. IV-B).
class BprMf : public models::RecommenderModel {
 public:
  explicit BprMf(const data::PresetHyperParams& hparams);

  std::string name() const override { return "BPRMF"; }

  Status Fit(const data::Dataset& dataset,
             const models::TrainOptions& options) override;

  void ScorePairs(const std::vector<int64_t>& users,
                  const std::vector<int64_t>& items,
                  std::vector<float>* out) override;

  /// Read-only access to the learned tables (KGAT pre-trains from these,
  /// as the paper recommends).
  const nn::EmbeddingTable& user_table() const { return *user_table_; }
  const nn::EmbeddingTable& item_table() const { return *item_table_; }

 private:
  data::PresetHyperParams hparams_;
  std::unique_ptr<nn::EmbeddingTable> user_table_;
  std::unique_ptr<nn::EmbeddingTable> item_table_;
};

}  // namespace baselines
}  // namespace cgkgr

#endif  // CGKGR_BASELINES_BPRMF_H_
