// Compressed sparse row (CSR) matrix — the canonical sparse format of the
// numerical core.
//
// Generated Markov chains are sparse (a handful of outgoing arcs per
// state), so the GTH elimination and the uniformization transient solver
// read CSR. Storage is structure-of-arrays: three flat std::vector arrays
// (row pointers, column indices, values) with 32-bit indices, which halves
// index bandwidth. Matrices are assembled
// through CsrBuilder, which stages triplets and scatters them by a
// counting sort into row buckets, or straight from row buckets with
// CsrMatrix::from_rows (see docs/numerics.md); duplicates are summed in
// insertion order. A matrix that shares another's pattern takes only its
// values (CsrMatrix::with_values).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "linalg/dense.hpp"

namespace rascad::linalg {

class CsrMatrix;

/// Accumulates (row, col, value) triplets; duplicates are summed.
/// Staging is structure-of-arrays; build() scatters the triplets into row
/// buckets by a stable counting sort and hands them to
/// CsrMatrix::from_rows.
class CsrBuilder {
 public:
  CsrBuilder(std::size_t rows, std::size_t cols);

  /// Adds value at (r, c). Throws std::out_of_range for bad indices.
  void add(std::size_t r, std::size_t c, double value);

  /// Pre-sizes the staging arrays for an expected entry count.
  void reserve(std::size_t nnz);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  CsrMatrix build() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  // SoA triplet staging (parallel arrays).
  std::vector<std::uint32_t> t_rows_;
  std::vector<std::uint32_t> t_cols_;
  std::vector<double> t_vals_;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Adopts rows given as buckets: row r's entries are
  /// col_idx/values[row_ptr[r] .. row_ptr[r + 1]) in any column order,
  /// and may repeat a column. Each row is sorted by column (stably),
  /// repeats are summed in their given order, and exact zeros are dropped,
  /// in place. Throws std::invalid_argument for inconsistent arrays and
  /// std::out_of_range for a column >= `cols`.
  static CsrMatrix from_rows(std::size_t cols,
                             std::vector<std::uint32_t> row_ptr,
                             std::vector<std::uint32_t> col_idx,
                             std::vector<double> values);

  /// This matrix's sparsity pattern with `values` in place of its own:
  /// values[k] is the entry at col_idx()[k]. The values are kept as given,
  /// zeros included. Throws std::invalid_argument unless there is one
  /// value per entry.
  CsrMatrix with_values(std::vector<double> values) const;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return values_.size(); }

  /// y = A * x. Throws std::invalid_argument on shape mismatch.
  /// Scalar row-major accumulation, so results do not depend on the host.
  Vector mul(const Vector& x) const;
  /// The same product into `y` (resized to rows(), must not alias `x`),
  /// reusing its storage.
  void mul(const Vector& x, Vector& y) const;

  /// y = A^T * x. Throws std::invalid_argument on shape mismatch.
  Vector mul_transpose(const Vector& x) const;

  /// Element lookup (binary search within the row); absent entries are 0.
  double at(std::size_t r, std::size_t c) const;

  /// Vector of the diagonal entries (length min(rows, cols)).
  Vector diagonal() const;

  /// Maximum absolute diagonal entry — the uniformization rate bound for a
  /// generator matrix.
  double max_abs_diagonal() const noexcept;

  /// A^T by a counting transpose: rows are visited in order, so every
  /// output row comes out sorted by column.
  CsrMatrix transposed() const;

  /// Row iteration support: columns/values of row r as parallel spans.
  struct RowView {
    const std::uint32_t* cols;
    const double* values;
    std::size_t size;
  };
  RowView row(std::size_t r) const noexcept {
    return {col_idx_.data() + row_ptr_[r], values_.data() + row_ptr_[r],
            static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
  }

  /// Sum of each row's entries (for generator-matrix conservation checks).
  Vector row_sums() const;

  /// The sparsity pattern: row r's columns are col_idx()[row_ptr()[r] ..
  /// row_ptr()[r + 1]), sorted and distinct.
  const std::vector<std::uint32_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  const std::vector<std::uint32_t>& col_idx() const noexcept {
    return col_idx_;
  }
  /// The entries' values, aligned with col_idx().
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  /// Entry (i, i), 0 when absent.
  double diagonal_entry(std::size_t i) const noexcept;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> row_ptr_;  // rows_ + 1 entries
  std::vector<std::uint32_t> col_idx_;  // nnz entries
  std::vector<double> values_;          // nnz entries
};

std::ostream& operator<<(std::ostream& os, const CsrMatrix& m);

}  // namespace rascad::linalg
