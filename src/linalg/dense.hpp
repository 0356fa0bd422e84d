// Dense matrix and vector primitives used by the Markov and RBD engines.
//
// Vector is the numeric core's vector type. DenseMatrix is a row-major
// dense matrix for small inspection and test-oracle uses (CsrMatrix::
// to_dense); every solver works on the CSR type in csr.hpp, and the exact
// solvers are banded GTH elimination in markov/steady_state.hpp.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <vector>

namespace rascad::linalg {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construct from an initializer-list of rows; all rows must have equal
  /// length. Throws std::invalid_argument on ragged input.
  DenseMatrix(std::initializer_list<std::initializer_list<double>> rows);

  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access. Throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  const double* row_data(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }
  double* row_data(std::size_t r) noexcept { return data_.data() + r * cols_; }

  DenseMatrix transposed() const;

  DenseMatrix& operator+=(const DenseMatrix& rhs);
  DenseMatrix& operator-=(const DenseMatrix& rhs);
  DenseMatrix& operator*=(double s) noexcept;

  friend DenseMatrix operator+(DenseMatrix a, const DenseMatrix& b) {
    a += b;
    return a;
  }
  friend DenseMatrix operator-(DenseMatrix a, const DenseMatrix& b) {
    a -= b;
    return a;
  }
  friend DenseMatrix operator*(DenseMatrix a, double s) noexcept {
    a *= s;
    return a;
  }
  friend DenseMatrix operator*(double s, DenseMatrix a) noexcept {
    a *= s;
    return a;
  }

  /// Matrix-matrix product. Throws std::invalid_argument on shape mismatch.
  friend DenseMatrix operator*(const DenseMatrix& a, const DenseMatrix& b);

  bool same_shape(const DenseMatrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const DenseMatrix& m);

/// y = A * x. Throws std::invalid_argument on shape mismatch.
Vector mat_vec(const DenseMatrix& a, const Vector& x);

/// y = A^T * x. Throws std::invalid_argument on shape mismatch.
Vector mat_transpose_vec(const DenseMatrix& a, const Vector& x);

double dot(const Vector& a, const Vector& b);
double norm1(const Vector& v) noexcept;
double norm2(const Vector& v) noexcept;
double norm_inf(const Vector& v) noexcept;
double sum(const Vector& v) noexcept;

/// v += alpha * w (axpy). Throws std::invalid_argument on size mismatch.
void axpy(double alpha, const Vector& w, Vector& v);

/// v *= alpha.
void scale(Vector& v, double alpha) noexcept;

/// Normalize v so its entries sum to one. Throws std::domain_error if the
/// sum is not strictly positive.
void normalize_sum(Vector& v);

/// max_i |a_i - b_i|. Throws std::invalid_argument on size mismatch.
double max_abs_diff(const Vector& a, const Vector& b);

}  // namespace rascad::linalg
