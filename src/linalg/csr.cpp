#include "linalg/csr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

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
  // Stable counting sort by row: one count pass, one prefix pass, one
  // scatter pass. Within a row the scatter preserves insertion order,
  // which from_rows keeps for equal columns.
  const std::size_t n = t_vals_.size();
  std::vector<std::uint32_t> row_ptr(rows_ + 1, 0);
  for (std::size_t t = 0; t < n; ++t) ++row_ptr[t_rows_[t] + 1];
  for (std::size_t r = 0; r < rows_; ++r) row_ptr[r + 1] += row_ptr[r];
  std::vector<std::uint32_t> next(row_ptr.begin(), row_ptr.end() - 1);
  std::vector<std::uint32_t> cols(n);
  std::vector<double> vals(n);
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint32_t pos = next[t_rows_[t]]++;
    cols[pos] = t_cols_[t];
    vals[pos] = t_vals_[t];
  }
  return CsrMatrix::from_rows(cols_, std::move(row_ptr), std::move(cols),
                              std::move(vals));
}

CsrMatrix CsrMatrix::from_rows(std::size_t cols,
                               std::vector<std::uint32_t> row_ptr,
                               std::vector<std::uint32_t> col_idx,
                               std::vector<double> values) {
  if (row_ptr.empty() || row_ptr.front() != 0 ||
      row_ptr.back() != col_idx.size() || col_idx.size() != values.size()) {
    throw std::invalid_argument("CsrMatrix::from_rows: inconsistent arrays");
  }
  if (row_ptr.size() - 1 > kMaxIndex || cols > kMaxIndex) {
    throw std::length_error("CsrMatrix: dimensions exceed 32-bit index");
  }
  CsrMatrix m;
  m.rows_ = row_ptr.size() - 1;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  std::uint32_t* cs = m.col_idx_.data();
  double* vs = m.values_.data();
  std::size_t out = 0;  // merged entries so far; never passes `begin`
  for (std::size_t r = 0; r < m.rows_; ++r) {
    const std::size_t begin = m.row_ptr_[r];
    const std::size_t end = m.row_ptr_[r + 1];
    if (begin > end) {
      throw std::invalid_argument("CsrMatrix::from_rows: row_ptr decreases");
    }
    // Stable insertion sort by column: generated rows hold a handful of
    // arcs, where this beats a general sort and keeps equal columns in
    // insertion order.
    for (std::size_t i = begin + 1; i < end; ++i) {
      const std::uint32_t c = cs[i];
      const double v = vs[i];
      std::size_t j = i;
      while (j > begin && cs[j - 1] > c) {
        cs[j] = cs[j - 1];
        vs[j] = vs[j - 1];
        --j;
      }
      cs[j] = c;
      vs[j] = v;
    }
    if (end > begin && cs[end - 1] >= cols) {
      throw std::out_of_range("CsrMatrix::from_rows: column out of range");
    }
    // Merge duplicates in place, summing in insertion order; entries whose
    // merged value is exactly zero are dropped (same rule the triplet path
    // always applied).
    m.row_ptr_[r] = static_cast<std::uint32_t>(out);
    for (std::size_t i = begin; i < end;) {
      const std::uint32_t c = cs[i];
      double v = 0.0;
      for (; i < end && cs[i] == c; ++i) v += vs[i];
      if (v != 0.0) {
        cs[out] = c;
        vs[out] = v;
        ++out;
      }
    }
  }
  m.row_ptr_[m.rows_] = static_cast<std::uint32_t>(out);
  m.col_idx_.resize(out);
  m.values_.resize(out);
  return m;
}

CsrMatrix CsrMatrix::with_values(std::vector<double> values) const {
  if (values.size() != values_.size()) {
    throw std::invalid_argument("CsrMatrix::with_values: " +
                                std::to_string(values.size()) +
                                " values for " + std::to_string(nnz()) +
                                " entries");
  }
  CsrMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.row_ptr_ = row_ptr_;
  m.col_idx_ = col_idx_;
  m.values_ = std::move(values);
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
  for (std::size_t i = 0; i < n; ++i) d[i] = diagonal_entry(i);
  return d;
}

double CsrMatrix::max_abs_diagonal() const noexcept {
  double m = 0.0;
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t i = 0; i < n; ++i) {
    m = std::max(m, std::abs(diagonal_entry(i)));
  }
  return m;
}

double CsrMatrix::diagonal_entry(std::size_t i) const noexcept {
  // A row holds a handful of entries, sorted by column: a scan from the
  // left beats a binary search.
  for (std::uint32_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
    if (col_idx_[k] >= i) return col_idx_[k] == i ? values_[k] : 0.0;
  }
  return 0.0;
}

CsrMatrix CsrMatrix::transposed() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  t.col_idx_.resize(nnz());
  t.values_.resize(nnz());
  for (const std::uint32_t c : col_idx_) ++t.row_ptr_[c + 1];
  for (std::size_t c = 0; c < cols_; ++c) t.row_ptr_[c + 1] += t.row_ptr_[c];
  // row_ptr_[c] is output row c's cursor; visiting the input rows in order
  // fills every output row in increasing column order.
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::uint32_t pos = t.row_ptr_[col_idx_[k]]++;
      t.col_idx_[pos] = static_cast<std::uint32_t>(r);
      t.values_[pos] = values_[k];
    }
  }
  // Each cursor now sits at its row's end, the next row's start.
  for (std::size_t c = cols_; c > 0; --c) t.row_ptr_[c] = t.row_ptr_[c - 1];
  t.row_ptr_[0] = 0;
  return t;
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
