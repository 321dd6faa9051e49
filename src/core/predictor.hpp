// Best-core (best cache size) predictor: the full ANN pipeline of
// Section IV.C/IV.D.
//
// 18 execution statistics → feature selection (top 10 by relevance) →
// standardisation → bagged ensemble of 30 {10,18,5,1} MLPs trained on a
// 70/15/15 split → single regression output snapped to {2,4,8} KB.
#pragma once

#include <memory>
#include <optional>

#include "ann/bagging.hpp"
#include "ann/dataset.hpp"
#include "ann/feature_selection.hpp"
#include "trace/counters.hpp"
#include "workload/characterization.hpp"

namespace hetsched {

struct PredictorConfig {
  FeatureSelectionConfig selection{};      // max_features = 10
  std::vector<std::size_t> hidden{18, 5};  // {n, 18, 5, 1} topology
  std::size_t ensemble_size = 30;
  double train_fraction = 0.70;
  double validation_fraction = 0.15;
  TrainerConfig trainer{};
};

struct PredictorReport {
  std::size_t dataset_rows = 0;
  std::size_t selected_features = 0;
  std::size_t train_rows = 0;
  std::size_t validation_rows = 0;
  std::size_t test_rows = 0;
  double test_mse = 0.0;
  double test_accuracy = 0.0;   // snapped to {2,4,8} KB classes
  double train_accuracy = 0.0;
};

// Interface the scheduler policies consume. The production implementation
// is the ANN (BestSizePredictor); tests and ablation benches substitute an
// oracle or a fixed answer.
class SizePredictor {
 public:
  virtual ~SizePredictor() = default;

  // Best cache size (bytes) for the application with the given profiled
  // statistics. `benchmark_id` identifies the profiling-table entry; the
  // ANN ignores it, oracles use it.
  virtual std::uint32_t predict(std::size_t benchmark_id,
                                const ExecutionStatistics& stats) const = 0;
};

class BestSizePredictor final : public SizePredictor {
 public:
  // `data`: rows of 18 statistics with log2(best KB) targets (see
  // workload/dataset_builder). Training is deterministic given `rng`.
  BestSizePredictor(const Dataset& data, const PredictorConfig& config,
                    Rng& rng);

  // Predicts the best cache size in bytes for an application's profiled
  // statistics.
  std::uint32_t predict_size_bytes(const ExecutionStatistics& stats) const;

  std::uint32_t predict(std::size_t benchmark_id,
                        const ExecutionStatistics& stats) const override {
    (void)benchmark_id;
    return predict_size_bytes(stats);
  }

  // Raw (un-snapped) ensemble output, for diagnostics.
  double predict_raw(const ExecutionStatistics& stats) const;

  const PredictorReport& report() const { return report_; }
  const SelectedFeatures& selected_features() const { return selected_; }
  const StandardScaler& scaler() const { return scaler_; }
  const BaggedEnsemble& ensemble() const { return *ensemble_; }

 private:
  SelectedFeatures selected_;
  StandardScaler scaler_;
  std::unique_ptr<BaggedEnsemble> ensemble_;
  PredictorReport report_;
};

// The paper's training split: trains on the suite's variant>0 instances,
// whose variant-0 siblings are the ones scheduled; with one variant per
// kernel it trains on everything (the paper trains and evaluates on the
// same EEMBC suite). Deterministic given `seed`.
std::unique_ptr<BestSizePredictor> train_size_predictor(
    const CharacterizedSuite& suite, const PredictorConfig& config,
    std::uint64_t seed);

}  // namespace hetsched
