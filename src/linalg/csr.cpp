#include "linalg/csr.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "linalg/arena.hpp"

namespace rascad::linalg {

namespace {

constexpr std::uint32_t kMaxIndex =
    std::numeric_limits<std::uint32_t>::max() - 1;

}  // namespace

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {
  if (rows > kMaxIndex || cols > kMaxIndex) {
    throw std::length_error("CsrBuilder: dimensions exceed 32-bit index");
  }
}

void CsrBuilder::add(std::size_t r, std::size_t c, double value) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("CsrBuilder::add: index out of range");
  }
  if (value == 0.0) return;
  if (t_vals_.size() > kMaxIndex) {
    throw std::length_error("CsrBuilder: entry count exceeds 32-bit index");
  }
  t_rows_.push_back(static_cast<std::uint32_t>(r));
  t_cols_.push_back(static_cast<std::uint32_t>(c));
  t_vals_.push_back(value);
}

void CsrBuilder::reserve(std::size_t nnz) {
  t_rows_.reserve(nnz);
  t_cols_.reserve(nnz);
  t_vals_.reserve(nnz);
}

CsrMatrix CsrBuilder::build() const {
  const std::size_t n = t_vals_.size();
  CsrMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.row_ptr_.assign(rows_ + 1, 0);
  m.col_idx_.reserve(n);
  m.values_.reserve(n);

  // Stable counting sort by row on arena scratch: one count pass, one
  // prefix pass, one scatter pass. Within a row the scatter preserves
  // insertion order, so after the (stable) per-row column sort, duplicate
  // entries are summed in insertion order — deterministic regardless of
  // how many entries the builder saw.
  Arena& arena = thread_arena();
  arena.reset();
  std::uint32_t* start = arena.allocate<std::uint32_t>(rows_ + 1);
  std::uint32_t* scratch_cols = arena.allocate<std::uint32_t>(n);
  double* scratch_vals = arena.allocate<double>(n);

  std::memset(start, 0, (rows_ + 1) * sizeof(std::uint32_t));
  for (std::size_t t = 0; t < n; ++t) ++start[t_rows_[t] + 1];
  for (std::size_t r = 0; r < rows_; ++r) start[r + 1] += start[r];
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint32_t pos = start[t_rows_[t]]++;
    scratch_cols[pos] = t_cols_[t];
    scratch_vals[pos] = t_vals_[t];
  }
  // `start` has shifted one row forward: start[r] is now the END of row r
  // (and row 0 begins at 0).

  std::size_t begin = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t end = start[r];
    // Stable insertion sort by column: generated rows hold a handful of
    // arcs, where this beats a general sort and keeps equal columns in
    // insertion order.
    for (std::size_t i = begin + 1; i < end; ++i) {
      const std::uint32_t c = scratch_cols[i];
      const double v = scratch_vals[i];
      std::size_t j = i;
      while (j > begin && scratch_cols[j - 1] > c) {
        scratch_cols[j] = scratch_cols[j - 1];
        scratch_vals[j] = scratch_vals[j - 1];
        --j;
      }
      scratch_cols[j] = c;
      scratch_vals[j] = v;
    }
    // Merge duplicates; entries whose merged value is exactly zero are
    // dropped (same rule the triplet path always applied).
    m.row_ptr_[r] = static_cast<std::uint32_t>(m.values_.size());
    std::size_t i = begin;
    while (i < end) {
      const std::uint32_t c = scratch_cols[i];
      double v = 0.0;
      while (i < end && scratch_cols[i] == c) {
        v += scratch_vals[i];
        ++i;
      }
      if (v != 0.0) {
        m.col_idx_.push_back(c);
        m.values_.push_back(v);
      }
    }
    begin = end;
  }
  m.row_ptr_[rows_] = static_cast<std::uint32_t>(m.values_.size());
  arena.reset();
  return m;
}

Vector CsrMatrix::mul(const Vector& x) const {
  Vector y;
  mul(x, y);
  return y;
}

void CsrMatrix::mul(const Vector& x, Vector& y) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("CsrMatrix::mul: shape mismatch");
  }
  y.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] = acc;
  }
}

Vector CsrMatrix::mul_transpose(const Vector& x) const {
  if (x.size() != rows_) {
    throw std::invalid_argument("CsrMatrix::mul_transpose: shape mismatch");
  }
  Vector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      y[col_idx_[k]] += values_[k] * xr;
    }
  }
  return y;
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("CsrMatrix::at: index out of range");
  }
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(c));
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Vector CsrMatrix::diagonal() const {
  const std::size_t n = std::min(rows_, cols_);
  Vector d(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) d[i] = at(i, i);
  return d;
}

double CsrMatrix::max_abs_diagonal() const noexcept {
  double m = 0.0;
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(at(i, i)));
  return m;
}

CsrMatrix CsrMatrix::transposed() const {
  CsrBuilder b(cols_, rows_);
  b.reserve(nnz());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      b.add(col_idx_[k], r, values_[k]);
    }
  }
  return b.build();
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix m(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      m(r, col_idx_[k]) = values_[k];
    }
  }
  return m;
}

Vector CsrMatrix::row_sums() const {
  Vector s(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      s[r] += values_[k];
    }
  }
  return s;
}

std::ostream& operator<<(std::ostream& os, const CsrMatrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    for (std::size_t k = 0; k < row.size; ++k) {
      os << '(' << r << ", " << row.cols[k] << ") = " << row.values[k] << '\n';
    }
  }
  return os;
}

}  // namespace rascad::linalg
