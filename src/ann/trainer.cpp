#include "ann/trainer.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/contracts.hpp"

namespace hetsched {
namespace {

// Copies rows order[start..end) of `source` into `out`, in that order.
void gather_rows(const Matrix& source, const std::vector<std::size_t>& order,
                 std::size_t start, std::size_t end, Matrix& out) {
  out.reset(end - start, source.cols());
  for (std::size_t r = start; r < end; ++r) {
    const std::span<const double> row = source.row(order[r]);
    std::copy(row.begin(), row.end(), out.row(r - start).begin());
  }
}

}  // namespace

Trainer::Trainer(TrainerConfig config) : config_(config) {
  HETSCHED_REQUIRE(config_.max_epochs > 0);
  HETSCHED_REQUIRE(config_.batch_size > 0);
  HETSCHED_REQUIRE(config_.learning_rate > 0.0);
  HETSCHED_REQUIRE(config_.lr_decay > 0.0 && config_.lr_decay <= 1.0);
}

TrainingReport Trainer::fit(Mlp& net, const Dataset& train,
                            const Dataset& validation, Rng& rng) const {
  HETSCHED_REQUIRE(train.consistent());
  HETSCHED_REQUIRE(train.size() > 0);
  HETSCHED_REQUIRE(train.feature_count() == net.input_size());

  TrainingReport report;
  // patience == 0 disables both early stopping and the best-validation
  // weight restore: the net keeps its final weights and regularisation is
  // left to the bagging ensemble.
  const bool use_validation =
      validation.size() > 0 && config_.patience > 0;
  double best_val = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;
  // Best-so-far snapshot for early-stopping restore.
  Mlp best_net = net;

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  report.train_mse_history.reserve(config_.max_epochs);
  if (use_validation) {
    report.validation_mse_history.reserve(config_.max_epochs);
  }

  // Everything a batch needs is allocated once per fit: each batch's rows
  // are gathered into the same input/target buffers and the net trains on
  // one workspace.
  Matrix batch_features;
  Matrix batch_targets;
  Mlp::Workspace workspace;
  double lr = config_.learning_rate;
  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_mse = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + config_.batch_size);
      gather_rows(train.features, order, start, end, batch_features);
      gather_rows(train.targets, order, start, end, batch_targets);
      epoch_mse += net.train_batch(batch_features, batch_targets, lr,
                                   config_.momentum, workspace);
      ++batches;
    }
    epoch_mse /= static_cast<double>(batches);
    report.train_mse_history.push_back(epoch_mse);
    report.final_train_mse = epoch_mse;
    ++report.epochs_run;
    lr *= config_.lr_decay;

    if (use_validation) {
      const double val_mse = net.evaluate_mse(
          validation.features, validation.targets, workspace);
      report.validation_mse_history.push_back(val_mse);
      if (val_mse < best_val) {
        best_val = val_mse;
        best_net = net;
        since_best = 0;
      } else {
        ++since_best;
        if (since_best >= config_.patience) {
          report.early_stopped = true;
          break;
        }
      }
    }
  }

  if (use_validation) {
    net = best_net;
    report.best_validation_mse = best_val;
  } else {
    report.best_validation_mse = report.final_train_mse;
  }
  return report;
}

}  // namespace hetsched
