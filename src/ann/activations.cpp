#include "ann/activations.hpp"

#include <cmath>

namespace hetsched {

std::string_view to_string(Activation a) {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kRelu: return "relu";
  }
  return "unknown";
}

double activate(Activation a, double x) {
  switch (a) {
    case Activation::kIdentity: return x;
    case Activation::kTanh: return std::tanh(x);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
  }
  return x;
}

double activate_grad_from_output(Activation a, double y) {
  switch (a) {
    case Activation::kIdentity: return 1.0;
    case Activation::kTanh: return 1.0 - y * y;
    case Activation::kSigmoid: return y * (1.0 - y);
    case Activation::kRelu: return y > 0.0 ? 1.0 : 0.0;
  }
  return 1.0;
}

void activate_inplace(Activation a, Matrix& m) {
  for (double& v : m.flat()) {
    v = activate(a, v);
  }
}

void multiply_by_activation_grad(Activation a, const Matrix& activated,
                                 Matrix& delta) {
  HETSCHED_REQUIRE(activated.rows() == delta.rows() &&
                   activated.cols() == delta.cols());
  const std::span<const double> y = activated.flat();
  const std::span<double> d = delta.flat();
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] *= activate_grad_from_output(a, y[i]);
  }
}

}  // namespace hetsched
