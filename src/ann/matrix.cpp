#include "ann/matrix.hpp"

#include <cmath>
#include <type_traits>

namespace hetsched {

namespace {

// Calls `kernel(n)` with `n` as a compile-time constant when it is one of
// the paper topology's layer widths after the input (18, 5, 1), so the
// loops over it unroll completely; any other width runs the same loop
// with a run-time bound. Either way each element sees the same operations
// in the same order.
template <typename Kernel>
void with_width(std::size_t n, Kernel&& kernel) {
  switch (n) {
    case 1: return kernel(std::integral_constant<std::size_t, 1>{});
    case 5: return kernel(std::integral_constant<std::size_t, 5>{});
    case 18: return kernel(std::integral_constant<std::size_t, 18>{});
    default: return kernel(n);
  }
}

}  // namespace

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  HETSCHED_REQUIRE(!rows.empty());
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    HETSCHED_REQUIRE(rows[r].size() == m.cols_);
    for (std::size_t c = 0; c < m.cols_; ++c) {
      m.at(r, c) = rows[r][c];
    }
  }
  return m;
}

Matrix Matrix::xavier(std::size_t fan_in, std::size_t fan_out, Rng& rng) {
  HETSCHED_REQUIRE(fan_in > 0 && fan_out > 0);
  Matrix m(fan_in, fan_out);
  const double limit =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (double& v : m.data_) {
    v = rng.uniform(-limit, limit);
  }
  return m;
}

void Matrix::matmul_into(const Matrix& other, Matrix& out) const {
  HETSCHED_REQUIRE(cols_ == other.rows_);
  HETSCHED_REQUIRE(&out != this && &out != &other);
  out.reset(rows_, other.cols_);
  with_width(other.cols_, [&](auto n) {
    for (std::size_t i = 0; i < rows_; ++i) {
      const double* a = data_.data() + i * cols_;
      double* o = out.data_.data() + i * n;
      for (std::size_t k = 0; k < cols_; ++k) {
        const double aik = a[k];
        if (aik == 0.0) continue;
        const double* b = other.data_.data() + k * n;
        for (std::size_t j = 0; j < n; ++j) o[j] += aik * b[j];
      }
    }
  });
}

void Matrix::transposed_matmul_into(const Matrix& other, Matrix& out) const {
  HETSCHED_REQUIRE(rows_ == other.rows_);
  HETSCHED_REQUIRE(&out != this && &out != &other);
  out.reset(cols_, other.cols_);
  with_width(other.cols_, [&](auto n) {
    for (std::size_t k = 0; k < rows_; ++k) {
      const double* a = data_.data() + k * cols_;
      const double* b = other.data_.data() + k * n;
      for (std::size_t i = 0; i < cols_; ++i) {
        const double aki = a[i];
        if (aki == 0.0) continue;
        double* o = out.data_.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) o[j] += aki * b[j];
      }
    }
  });
}

void Matrix::matmul_transposed_into(const Matrix& other, Matrix& out) const {
  HETSCHED_REQUIRE(cols_ == other.cols_);
  HETSCHED_REQUIRE(&out != this && &out != &other);
  out.reset(rows_, other.rows_);
  double* o = out.data_.data();
  with_width(cols_, [&](auto n) {
    for (std::size_t i = 0; i < rows_; ++i) {
      const double* a = data_.data() + i * n;
      for (std::size_t j = 0; j < other.rows_; ++j) {
        const double* b = other.data_.data() + j * n;
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += a[k] * b[k];
        *o++ = acc;
      }
    }
  });
}

void Matrix::column_sums_into(Matrix& out) const {
  HETSCHED_REQUIRE(&out != this);
  out.reset(1, cols_);
  double* o = out.data_.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) o[c] += a[c];
  }
}

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out;
  matmul_into(other, out);
  return out;
}

Matrix Matrix::transposed_matmul(const Matrix& other) const {
  Matrix out;
  transposed_matmul_into(other, out);
  return out;
}

Matrix Matrix::matmul_transposed(const Matrix& other) const {
  Matrix out;
  matmul_transposed_into(other, out);
  return out;
}

Matrix Matrix::column_sums() const {
  Matrix out;
  column_sums_into(out);
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out.at(c, r) = at(r, c);
    }
  }
  return out;
}

Matrix& Matrix::add_inplace(const Matrix& other, double scale) {
  HETSCHED_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
  return *this;
}

Matrix& Matrix::scale_inplace(double k) {
  for (double& v : data_) v *= k;
  return *this;
}

Matrix& Matrix::add_row_vector(const Matrix& bias) {
  HETSCHED_REQUIRE(bias.rows_ == 1 && bias.cols_ == cols_);
  const double* b = bias.data_.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    double* a = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) a[c] += b[c];
  }
  return *this;
}

Matrix& Matrix::hadamard_inplace(const Matrix& other) {
  HETSCHED_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] *= other.data_[i];
  }
  return *this;
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

}  // namespace hetsched
