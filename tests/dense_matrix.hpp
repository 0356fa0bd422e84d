// Test-local row-major dense matrix. The library works on CSR matrices
// only; the dense oracles (dense_lu.hpp, dense SpMV checks) build their
// inputs with this type and to_dense().
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"

namespace rascad::linalg {

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construct from an initializer-list of rows; all rows must have equal
  /// length. Throws std::invalid_argument on ragged input.
  DenseMatrix(std::initializer_list<std::initializer_list<double>> rows)
      : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0) {
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
      if (r.size() != cols_) {
        throw std::invalid_argument("DenseMatrix: ragged initializer list");
      }
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  static DenseMatrix identity(std::size_t n) {
    DenseMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access. Throws std::out_of_range.
  double& at(std::size_t r, std::size_t c) {
    check(r, c);
    return (*this)(r, c);
  }
  double at(std::size_t r, std::size_t c) const {
    check(r, c);
    return (*this)(r, c);
  }

  DenseMatrix transposed() const {
    DenseMatrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    }
    return t;
  }

  friend DenseMatrix operator+(DenseMatrix a, const DenseMatrix& b) {
    a.same_shape(b);
    for (std::size_t i = 0; i < a.data_.size(); ++i) a.data_[i] += b.data_[i];
    return a;
  }
  friend DenseMatrix operator-(DenseMatrix a, const DenseMatrix& b) {
    a.same_shape(b);
    for (std::size_t i = 0; i < a.data_.size(); ++i) a.data_[i] -= b.data_[i];
    return a;
  }
  friend DenseMatrix operator*(DenseMatrix a, double s) noexcept {
    for (double& x : a.data_) x *= s;
    return a;
  }

  /// Matrix-matrix product. Throws std::invalid_argument on shape mismatch.
  friend DenseMatrix operator*(const DenseMatrix& a, const DenseMatrix& b) {
    if (a.cols() != b.rows()) {
      throw std::invalid_argument("DenseMatrix::operator*: shape mismatch");
    }
    DenseMatrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t k = 0; k < a.cols(); ++k) {
        for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += a(i, k) * b(k, j);
      }
    }
    return c;
  }

 private:
  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) {
      throw std::out_of_range("DenseMatrix::at: index out of range");
    }
  }
  void same_shape(const DenseMatrix& other) const {
    if (rows_ != other.rows_ || cols_ != other.cols_) {
      throw std::invalid_argument("DenseMatrix: shape mismatch");
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = A * x. Throws std::invalid_argument on shape mismatch.
inline Vector mat_vec(const DenseMatrix& a, const Vector& x) {
  if (a.cols() != x.size()) throw std::invalid_argument("mat_vec: shape");
  Vector y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) y[r] += a(r, c) * x[c];
  }
  return y;
}

/// y = A^T * x. Throws std::invalid_argument on shape mismatch.
inline Vector mat_transpose_vec(const DenseMatrix& a, const Vector& x) {
  return mat_vec(a.transposed(), x);
}

/// The dense copy of a CSR matrix.
inline DenseMatrix to_dense(const CsrMatrix& m) {
  DenseMatrix d(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    for (std::size_t k = 0; k < row.size; ++k) d(r, row.cols[k]) = row.values[k];
  }
  return d;
}

}  // namespace rascad::linalg
