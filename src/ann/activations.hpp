// Activation functions for the MLP. The paper's PEs are classic sigmoidal
// units; tanh is the default hidden activation, with identity output for
// the cache-size regression head.
#pragma once

#include <string_view>

#include "ann/matrix.hpp"

namespace hetsched {

enum class Activation { kIdentity, kTanh, kSigmoid, kRelu };

std::string_view to_string(Activation a);

double activate(Activation a, double x);
// Derivative expressed in terms of the *activated* value y = f(x), which
// is what backprop has in hand for tanh/sigmoid.
double activate_grad_from_output(Activation a, double y);

// Elementwise application over a matrix (in place).
void activate_inplace(Activation a, Matrix& m);
// Backprop through the activation, in place: multiplies every element of
// `delta` by f'(x), taken from the same element of `activated`.
void multiply_by_activation_grad(Activation a, const Matrix& activated,
                                 Matrix& delta);

}  // namespace hetsched
