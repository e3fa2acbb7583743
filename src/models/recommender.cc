#include "models/recommender.h"

#include <utility>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "common/macros.h"
#include "models/parallel_trainer.h"
#include "models/trainer_util.h"

namespace cgkgr {
namespace models {

void RecommenderModel::SaveState(ckpt::Writer* writer) const {
  CGKGR_CHECK_MSG(prepared_, "SaveState before Fit/Prepare: %s",
                  name().c_str());
  writer->BeginSection("model/" + name());
  ckpt::WriteParameterStore(store_, writer);
  ckpt::WriteRngState(inference_rng_, writer);
}

Status RecommenderModel::LoadState(ckpt::Reader* reader) {
  if (!prepared_) {
    return Status::InvalidArgument("LoadState before Fit/Prepare: " + name());
  }
  CGKGR_RETURN_NOT_OK(reader->ExpectSection("model/" + name()));
  CGKGR_RETURN_NOT_OK(ckpt::ReadParameterStore(reader, &store_));
  return ckpt::ReadRngState(reader, &inference_rng_);
}

Status RecommenderModel::Train(const data::Dataset& dataset,
                               const TrainOptions& options,
                               const nn::AdamOptions& adam,
                               const LossFn& loss_fn,
                               const EpochSetupFn& epoch_setup) {
  prepared_ = true;
  nn::AdamOptimizer optimizer(store_.parameters(), adam);
  const auto all_positives = dataset.BuildAllPositives();
  ParallelTrainer trainer(options, &store_, &optimizer);
  auto run_epoch = [&](int64_t epoch, Rng* rng) {
    analysis::TapeLintOptions lint_options;
    if (epoch_setup) epoch_setup(epoch, &lint_options);
    return trainer.RunEpoch(dataset.train, all_positives, dataset.num_items,
                            rng, loss_fn, lint_options);
  };
  return RunTrainingLoop(this, &store_, &optimizer, dataset, options,
                         run_epoch, &stats_);
}

Status SaveModelState(const RecommenderModel& model, const std::string& path) {
  if (!model.prepared()) {
    return Status::InvalidArgument("SaveModelState before Fit/Prepare: " +
                                   model.name());
  }
  ckpt::Writer writer;
  model.SaveState(&writer);
  return writer.Commit(path);
}

Status LoadModelState(RecommenderModel* model, const std::string& path) {
  CGKGR_CHECK(model != nullptr);
  Result<ckpt::Reader> reader = ckpt::Reader::Open(path);
  if (!reader.ok()) return reader.status();
  ckpt::Reader r = std::move(reader).value();
  CGKGR_RETURN_NOT_OK(model->LoadState(&r));
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        path + ": trailing records after model state — file was not written "
               "by SaveModelState for this model");
  }
  return Status::OK();
}

}  // namespace models
}  // namespace cgkgr
