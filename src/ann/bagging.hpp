// Bagged ensemble of MLPs.
//
// Section IV.D: "We used bagging to improve the ANN's accuracy and
// generalization, which trains several different ANNs using a subset of
// the input data and averages the ANNs' outputs... We trained 30 ANNs and
// initialized the model weights randomly."
#pragma once

#include <vector>

#include "ann/mlp.hpp"
#include "ann/trainer.hpp"

namespace hetsched {

struct BaggingConfig {
  std::size_t ensemble_size = 30;
  // Bootstrap sample size as a fraction of the training set.
  double sample_fraction = 1.0;
  MlpConfig net;
  TrainerConfig trainer;
};

class BaggedEnsemble {
 public:
  // Trains `ensemble_size` nets on bootstrap resamples of `train`, each
  // with independently random initial weights; `validation` drives early
  // stopping for every member.
  BaggedEnsemble(const BaggingConfig& config, const Dataset& train,
                 const Dataset& validation, Rng& rng);

  std::size_t size() const { return members_.size(); }
  const Mlp& member(std::size_t i) const;

  // Mean of the member outputs.
  Matrix predict(const Matrix& inputs) const;
  std::vector<double> predict_one(std::span<const double> input) const;
  // The same mean into `out` (output_size values) on reused buffers.
  // Allocates nothing once `workspace` has served this ensemble. The
  // workspace belongs to the caller: concurrent predictions on one shared
  // ensemble each bring their own.
  void predict_one(std::span<const double> input, std::span<double> out,
                   Mlp::Workspace& workspace) const;

  // Per-member outputs for one input (spread diagnostics).
  std::vector<double> member_outputs(std::span<const double> input) const;

  double evaluate_mse(const Matrix& inputs, const Matrix& targets) const;

 private:
  std::vector<Mlp> members_;
};

}  // namespace hetsched
