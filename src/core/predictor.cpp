#include "core/predictor.hpp"

#include "ann/metrics.hpp"
#include "util/contracts.hpp"
#include "workload/dataset_builder.hpp"

namespace hetsched {

BestSizePredictor::BestSizePredictor(const Dataset& data,
                                     const PredictorConfig& config,
                                     Rng& rng) {
  HETSCHED_REQUIRE(data.consistent());
  HETSCHED_REQUIRE(data.size() >= 4);
  HETSCHED_REQUIRE(data.feature_count() == kNumExecutionStatistics);

  report_.dataset_rows = data.size();

  // 70/15/15 split on the raw dataset, stratified by application so every
  // kernel contributes training rows.
  DataSplit split =
      data.groups.empty()
          ? split_dataset(data, config.train_fraction,
                          config.validation_fraction, rng)
          : split_dataset_stratified(data, config.train_fraction,
                                     config.validation_fraction, rng);

  // Feature selection fitted on training rows only.
  selected_ = select_features(split.train, config.selection);
  report_.selected_features = selected_.indices.size();

  Dataset train = selected_.project(split.train);
  Dataset validation = selected_.project(split.validation);
  Dataset test = selected_.project(split.test);

  scaler_.fit(train.features);
  train.features = scaler_.transform(train.features);
  if (validation.size() > 0) {
    validation.features = scaler_.transform(validation.features);
  }
  if (test.size() > 0) {
    test.features = scaler_.transform(test.features);
  }

  BaggingConfig bagging;
  bagging.ensemble_size = config.ensemble_size;
  bagging.net.layer_sizes.clear();
  bagging.net.layer_sizes.push_back(selected_.indices.size());
  for (std::size_t h : config.hidden) {
    bagging.net.layer_sizes.push_back(h);
  }
  bagging.net.layer_sizes.push_back(1);
  bagging.trainer = config.trainer;

  ensemble_ =
      std::make_unique<BaggedEnsemble>(bagging, train, validation, rng);

  report_.train_rows = train.size();
  report_.validation_rows = validation.size();
  report_.test_rows = test.size();
  report_.train_accuracy = snapped_accuracy(
      ensemble_->predict(train.features), train.targets,
      size_target_classes());
  if (test.size() > 0) {
    const Matrix predictions = ensemble_->predict(test.features);
    report_.test_mse = mean_squared_error(predictions, test.targets);
    report_.test_accuracy = snapped_accuracy(predictions, test.targets,
                                             size_target_classes());
  }
}

double BestSizePredictor::predict_raw(
    const ExecutionStatistics& stats) const {
  auto raw = stats.to_vector();
  // Same feature transform the training dataset was built with.
  for (std::size_t c = 0; c < raw.size(); ++c) {
    raw[c] = transform_statistic(c, raw[c]);
  }
  const std::vector<double> projected = selected_.project_row(raw);
  const std::vector<double> scaled = scaler_.transform_row(projected);
  double predicted = 0.0;
  Mlp::Workspace workspace;
  ensemble_->predict_one(scaled, {&predicted, 1}, workspace);
  return predicted;
}

std::uint32_t BestSizePredictor::predict_size_bytes(
    const ExecutionStatistics& stats) const {
  return target_to_size(predict_raw(stats));
}

std::unique_ptr<BestSizePredictor> train_size_predictor(
    const CharacterizedSuite& suite, const PredictorConfig& config,
    std::uint64_t seed) {
  std::vector<std::size_t> train_ids = suite.training_ids();
  if (train_ids.empty()) {
    train_ids.resize(suite.size());
    for (std::size_t i = 0; i < train_ids.size(); ++i) train_ids[i] = i;
  }
  Rng rng(seed);
  return std::make_unique<BestSizePredictor>(
      build_ann_dataset(suite, train_ids), config, rng);
}

}  // namespace hetsched
