#pragma once

// Dense vector/matrix containers. Row-major storage, value semantics, no
// hidden sharing (Core Guidelines: prefer simple regular types). Views are
// passed as std::span; all heavy kernels live in blas.hpp/cpp.

#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace tsunami {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Adopt `data` (row-major, rows * cols entries) without copying it.
  /// Throws std::invalid_argument on a size mismatch.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double>&& data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    if (data_.size() != rows * cols)
      throw std::invalid_argument("Matrix: data size != rows * cols");
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  /// Mutable view of row i.
  [[nodiscard]] std::span<double> row(std::size_t i) {
    return {data_.data() + i * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// Transposed copy.
  [[nodiscard]] Matrix transposed() const;

  /// Max |A_ij - B_ij|; throws on shape mismatch.
  [[nodiscard]] double max_abs_diff(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

inline Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

inline double Matrix::max_abs_diff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t k = 0; k < data_.size(); ++k) {
    const double d = data_[k] - other.data_[k];
    m = std::max(m, d < 0 ? -d : d);
  }
  return m;
}

}  // namespace tsunami
