// Dense row-major matrix for the ANN, built around four into-buffer
// kernels (`matmul_into`, `transposed_matmul_into`,
// `matmul_transposed_into`, `column_sums_into`). Each writes a
// caller-owned output that `reset` reshapes in place, so a training step
// that keeps its buffers allocates nothing; the allocating forms
// (`matmul`, ...) are thin wrappers over the same loops.
//
// The kernels fix the floating-point operations: every output element is
// accumulated from +0.0 over the reduction index in ascending order, one
// multiply and one add per term, never reassociated. Results are
// therefore bit-identical whichever form computes them. For the paper
// topology's layer widths (18, 5, 1) the innermost loop gets a
// compile-time bound and unrolls; the operations stay the same.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace hetsched {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix from_rows(
      const std::vector<std::vector<double>>& rows);

  // Xavier/Glorot-uniform initialisation for a (fan_in x fan_out) weight
  // matrix.
  static Matrix xavier(std::size_t fan_in, std::size_t fan_out, Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  // Reshapes to rows x cols with every element 0. Reuses the storage when
  // it is large enough, so a buffer reset to shapes it has held before
  // never allocates.
  void reset(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  double& at(std::size_t r, std::size_t c) {
    HETSCHED_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    HETSCHED_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    HETSCHED_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    HETSCHED_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<double> flat() { return data_; }
  std::span<const double> flat() const { return data_; }

  // out = this * other. `out` must not be an operand.
  void matmul_into(const Matrix& other, Matrix& out) const;
  // out = this^T * other.
  void transposed_matmul_into(const Matrix& other, Matrix& out) const;
  // out = this * other^T.
  void matmul_transposed_into(const Matrix& other, Matrix& out) const;
  // Column-wise sum → out (1 x cols). Used for bias gradients.
  void column_sums_into(Matrix& out) const;

  Matrix matmul(const Matrix& other) const;
  Matrix transposed_matmul(const Matrix& other) const;
  Matrix matmul_transposed(const Matrix& other) const;
  Matrix column_sums() const;
  Matrix transposed() const;

  Matrix& add_inplace(const Matrix& other, double scale = 1.0);
  Matrix& scale_inplace(double k);
  // Adds `bias` (1 x cols) to every row.
  Matrix& add_row_vector(const Matrix& bias);
  // Elementwise product.
  Matrix& hadamard_inplace(const Matrix& other);

  double frobenius_norm() const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace hetsched
