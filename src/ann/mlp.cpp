#include "ann/mlp.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"

namespace hetsched {

Mlp::Mlp(MlpConfig config, Rng& rng) : config_(std::move(config)) {
  HETSCHED_REQUIRE(config_.layer_sizes.size() >= 2);
  for (std::size_t s : config_.layer_sizes) {
    HETSCHED_REQUIRE(s > 0);
  }
  const std::size_t layers = config_.layer_sizes.size() - 1;
  weights_.reserve(layers);
  biases_.reserve(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    weights_.push_back(Matrix::xavier(config_.layer_sizes[l],
                                      config_.layer_sizes[l + 1], rng));
    biases_.emplace_back(1, config_.layer_sizes[l + 1]);
    velocity_w_.emplace_back(config_.layer_sizes[l],
                             config_.layer_sizes[l + 1]);
    velocity_b_.emplace_back(1, config_.layer_sizes[l + 1]);
  }
}

Mlp Mlp::from_parameters(MlpConfig config, std::vector<Matrix> weights,
                         std::vector<Matrix> biases) {
  HETSCHED_REQUIRE(config.layer_sizes.size() >= 2);
  const std::size_t layers = config.layer_sizes.size() - 1;
  HETSCHED_REQUIRE(weights.size() == layers);
  HETSCHED_REQUIRE(biases.size() == layers);
  for (std::size_t l = 0; l < layers; ++l) {
    HETSCHED_REQUIRE(weights[l].rows() == config.layer_sizes[l]);
    HETSCHED_REQUIRE(weights[l].cols() == config.layer_sizes[l + 1]);
    HETSCHED_REQUIRE(biases[l].rows() == 1);
    HETSCHED_REQUIRE(biases[l].cols() == config.layer_sizes[l + 1]);
  }
  Mlp net;
  net.config_ = std::move(config);
  net.weights_ = std::move(weights);
  net.biases_ = std::move(biases);
  for (std::size_t l = 0; l < layers; ++l) {
    net.velocity_w_.emplace_back(net.config_.layer_sizes[l],
                                 net.config_.layer_sizes[l + 1]);
    net.velocity_b_.emplace_back(1, net.config_.layer_sizes[l + 1]);
  }
  return net;
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l + 1 < config_.layer_sizes.size(); ++l) {
    n += config_.layer_sizes[l] * config_.layer_sizes[l + 1] +
         config_.layer_sizes[l + 1];
  }
  return n;
}

const Matrix& Mlp::forward(const Matrix& inputs, Workspace& workspace) const {
  HETSCHED_REQUIRE(inputs.cols() == input_size());
  std::vector<Matrix>& outputs = workspace.outputs_;
  outputs.resize(weights_.size());
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const Matrix& layer_input = l == 0 ? inputs : outputs[l - 1];
    Matrix& z = outputs[l];
    layer_input.matmul_into(weights_[l], z);
    z.add_row_vector(biases_[l]);
    const bool last = l + 1 == weights_.size();
    activate_inplace(last ? config_.output_activation
                          : config_.hidden_activation,
                     z);
  }
  return outputs.back();
}

Matrix Mlp::predict(const Matrix& inputs) const {
  Workspace workspace;
  forward(inputs, workspace);
  return std::move(workspace.outputs_.back());
}

std::vector<double> Mlp::predict_one(std::span<const double> input) const {
  Workspace workspace;
  const std::span<const double> out = predict_one(input, workspace);
  return std::vector<double>(out.begin(), out.end());
}

std::span<const double> Mlp::predict_one(std::span<const double> input,
                                         Workspace& workspace) const {
  HETSCHED_REQUIRE(input.size() == input_size());
  Matrix& row = workspace.input_;
  row.reset(1, input.size());
  std::copy(input.begin(), input.end(), row.flat().begin());
  return forward(row, workspace).row(0);
}

double Mlp::evaluate_mse(const Matrix& inputs, const Matrix& targets) const {
  Workspace workspace;
  return evaluate_mse(inputs, targets, workspace);
}

double Mlp::evaluate_mse(const Matrix& inputs, const Matrix& targets,
                         Workspace& workspace) const {
  HETSCHED_REQUIRE(inputs.rows() == targets.rows());
  HETSCHED_REQUIRE(targets.cols() == output_size());
  if (inputs.rows() == 0) return 0.0;
  const Matrix& out = forward(inputs, workspace);
  double acc = 0.0;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      const double d = out.at(r, c) - targets.at(r, c);
      acc += d * d;
    }
  }
  return acc / static_cast<double>(out.rows() * out.cols());
}

double Mlp::train_batch(const Matrix& inputs, const Matrix& targets,
                        double learning_rate, double momentum) {
  Workspace workspace;
  return train_batch(inputs, targets, learning_rate, momentum, workspace);
}

double Mlp::train_batch(const Matrix& inputs, const Matrix& targets,
                        double learning_rate, double momentum,
                        Workspace& workspace) {
  HETSCHED_REQUIRE(inputs.rows() == targets.rows());
  HETSCHED_REQUIRE(inputs.rows() > 0);
  HETSCHED_REQUIRE(targets.cols() == output_size());
  HETSCHED_REQUIRE(learning_rate > 0.0);
  HETSCHED_REQUIRE(momentum >= 0.0 && momentum < 1.0);

  const Matrix& output = forward(inputs, workspace);
  const double n = static_cast<double>(inputs.rows());

  // Loss: MSE = mean((out - target)^2); dL/dout = 2 (out - target) / n.
  Matrix& delta = workspace.delta_;
  delta = output;
  delta.add_inplace(targets, -1.0);
  double mse = 0.0;
  for (double v : delta.flat()) mse += v * v;
  mse /= static_cast<double>(output.rows() * output.cols());
  delta.scale_inplace(2.0 / (n * static_cast<double>(output.cols())));

  // Backward through the output activation.
  multiply_by_activation_grad(config_.output_activation, output, delta);

  Matrix& grad_w = workspace.grad_w_;
  Matrix& grad_b = workspace.grad_b_;
  for (std::size_t l = weights_.size(); l-- > 0;) {
    const Matrix& layer_input = l == 0 ? inputs : workspace.outputs_[l - 1];
    layer_input.transposed_matmul_into(delta, grad_w);
    delta.column_sums_into(grad_b);

    // The error one layer down, through the weights before this step.
    if (l > 0) {
      delta.matmul_transposed_into(weights_[l], workspace.next_delta_);
      multiply_by_activation_grad(config_.hidden_activation, layer_input,
                                  workspace.next_delta_);
    }

    velocity_w_[l].scale_inplace(momentum).add_inplace(grad_w,
                                                       -learning_rate);
    velocity_b_[l].scale_inplace(momentum).add_inplace(grad_b,
                                                       -learning_rate);
    weights_[l].add_inplace(velocity_w_[l]);
    biases_[l].add_inplace(velocity_b_[l]);

    std::swap(delta, workspace.next_delta_);
  }
  return mse;
}

}  // namespace hetsched
