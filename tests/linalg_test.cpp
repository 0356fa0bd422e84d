// Unit tests for the dense/sparse linear algebra substrate and the
// test-local dense and Krylov oracles.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "bicgstab_oracle.hpp"
#include "dense_lu.hpp"
#include "dense_matrix.hpp"

namespace {

using rascad::linalg::CsrBuilder;
using rascad::linalg::CsrMatrix;
using rascad::linalg::DenseMatrix;
using rascad::linalg::Vector;

TEST(DenseMatrix, ConstructionAndAccess) {
  DenseMatrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 3), std::out_of_range);
}

TEST(DenseMatrix, InitializerListRejectsRagged) {
  EXPECT_THROW((DenseMatrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(DenseMatrix, Identity) {
  const DenseMatrix id = DenseMatrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(DenseMatrix, ArithmeticAndTranspose) {
  const DenseMatrix a{{1.0, 2.0}, {3.0, 4.0}};
  const DenseMatrix b{{5.0, 6.0}, {7.0, 8.0}};
  const DenseMatrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 12.0);
  const DenseMatrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 1), 4.0);
  const DenseMatrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  const DenseMatrix t = a.transposed();
  EXPECT_DOUBLE_EQ(t(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 2.0);
}

TEST(DenseMatrix, MatrixProduct) {
  const DenseMatrix a{{1.0, 2.0}, {3.0, 4.0}};
  const DenseMatrix b{{0.0, 1.0}, {1.0, 0.0}};
  const DenseMatrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
  const DenseMatrix bad(3, 2);
  EXPECT_THROW(a * bad, std::invalid_argument);
}

TEST(DenseVectorOps, NormsAndDot) {
  const Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(rascad::linalg::norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(rascad::linalg::norm_inf(v), 4.0);
  EXPECT_DOUBLE_EQ(rascad::linalg::dot(v, v), 25.0);
  EXPECT_THROW(rascad::linalg::dot(v, Vector{1.0}), std::invalid_argument);
}

TEST(DenseVectorOps, NormalizeSum) {
  Vector v{1.0, 3.0};
  rascad::linalg::normalize_sum(v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
  Vector zero{0.0, 0.0};
  EXPECT_THROW(rascad::linalg::normalize_sum(zero), std::domain_error);
}

TEST(DenseVectorOps, MatVec) {
  const DenseMatrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector x{1.0, 1.0};
  const Vector y = rascad::linalg::mat_vec(a, x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const Vector yt = rascad::linalg::mat_transpose_vec(a, x);
  EXPECT_DOUBLE_EQ(yt[0], 4.0);
  EXPECT_DOUBLE_EQ(yt[1], 6.0);
}

TEST(CsrMatrix, BuildMergesDuplicates) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 4.0);
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(CsrMatrix, DropsExplicitZeros) {
  CsrBuilder b(2, 2);
  b.add(0, 0, 0.0);
  b.add(0, 1, 1.0);
  b.add(0, 1, -1.0);  // cancels to zero
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(CsrMatrix, MulAndTranspose) {
  CsrBuilder b(2, 3);
  b.add(0, 0, 1.0);
  b.add(0, 2, 2.0);
  b.add(1, 1, 3.0);
  const CsrMatrix m = b.build();
  const Vector y = m.mul({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  const Vector yt = m.mul_transpose({1.0, 1.0});
  EXPECT_DOUBLE_EQ(yt[0], 1.0);
  EXPECT_DOUBLE_EQ(yt[1], 3.0);
  EXPECT_DOUBLE_EQ(yt[2], 2.0);
  const CsrMatrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 2.0);
}

TEST(CsrMatrix, TransposeMatchesTripletTranspose) {
  for (std::uint32_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> dim(1, 40);
    std::uniform_real_distribution<double> value(-2.0, 2.0);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    const std::size_t rows = dim(rng);
    const std::size_t cols = dim(rng);
    CsrBuilder b(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      if (r % 5 == 2) continue;  // empty rows
      for (std::size_t c = 0; c < cols; ++c) {
        if (c % 6 == 1) continue;  // empty columns
        if (coin(rng) < 0.2) b.add(r, c, value(rng));
      }
    }
    const CsrMatrix a = b.build();
    CsrBuilder tb(cols, rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto row = a.row(r);
      for (std::size_t k = 0; k < row.size; ++k) {
        tb.add(row.cols[k], r, row.values[k]);
      }
    }
    const CsrMatrix oracle = tb.build();
    const CsrMatrix t = a.transposed();
    ASSERT_EQ(t.rows(), cols) << "seed=" << seed;
    ASSERT_EQ(t.cols(), rows) << "seed=" << seed;
    EXPECT_EQ(t.row_ptr(), oracle.row_ptr()) << "seed=" << seed;
    EXPECT_EQ(t.col_idx(), oracle.col_idx()) << "seed=" << seed;
    for (std::size_t r = 0; r < t.rows(); ++r) {
      const auto got = t.row(r);
      const auto want = oracle.row(r);
      for (std::size_t k = 0; k < got.size && k < want.size; ++k) {
        EXPECT_EQ(got.values[k], want.values[k]) << "seed=" << seed;
      }
    }
  }
  // The empty matrix transposes to an empty matrix of the swapped shape.
  const CsrMatrix empty = CsrBuilder(3, 0).build().transposed();
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.cols(), 3u);
  EXPECT_EQ(empty.nnz(), 0u);
}

TEST(CsrMatrix, RowSumsAndDense) {
  CsrBuilder b(2, 2);
  b.add(0, 0, -1.0);
  b.add(0, 1, 1.0);
  const CsrMatrix m = b.build();
  const Vector s = m.row_sums();
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
  const DenseMatrix d = rascad::linalg::to_dense(m);
  EXPECT_DOUBLE_EQ(d(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 1.0);
}

TEST(CsrMatrix, OutOfRangeAdd) {
  CsrBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(b.add(0, 2, 1.0), std::out_of_range);
}

TEST(DenseLuOracle, SolvesKnownSystem) {
  // A = [[2,1],[1,3]], b = [3,5] -> x = [0.8, 1.4]
  const DenseMatrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = rascad::testing::dense_lu_solve(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

CsrMatrix diagonally_dominant_test_matrix() {
  CsrBuilder b(4, 4);
  const double diag[4] = {10.0, 12.0, 9.0, 11.0};
  for (std::size_t i = 0; i < 4; ++i) b.add(i, i, diag[i]);
  b.add(0, 1, 2.0);
  b.add(1, 0, 1.0);
  b.add(1, 2, 3.0);
  b.add(2, 3, 2.0);
  b.add(3, 0, 1.5);
  return b.build();
}

TEST(BicgstabOracle, MatchesLu) {
  const CsrMatrix a = diagonally_dominant_test_matrix();
  const Vector b{1.0, 2.0, 3.0, 4.0};
  const auto result = rascad::testing::bicgstab_solve(a, b);
  ASSERT_TRUE(result.converged);
  const Vector exact =
      rascad::testing::dense_lu_solve(rascad::linalg::to_dense(a), b);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.solution[i], exact[i], 1e-8);
  }
}

/// Dense oracle: y = A x computed row-by-row off to_dense().
Vector dense_mul(const CsrMatrix& a, const Vector& x) {
  const auto d = rascad::linalg::to_dense(a);
  Vector y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) y[r] += d(r, c) * x[c];
  }
  return y;
}

CsrMatrix random_csr(std::size_t n, double density, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  CsrBuilder b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    if (r % 11 == 5) continue;  // leave some rows empty
    for (std::size_t c = 0; c < n; ++c) {
      if (r % 7 == 3 && c == r) continue;  // some diagonal-free rows
      if (coin(rng) < density) b.add(r, c, value(rng));
    }
  }
  return b.build();
}

TEST(Spmv, MatchesDenseOracleOnRandomMatrices) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    const CsrMatrix a = random_csr(37, 0.15, seed);
    std::mt19937 rng(seed + 100);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Vector x(a.cols());
    for (double& v : x) v = dist(rng);
    const Vector oracle = dense_mul(a, x);
    const Vector y = a.mul(x);
    ASSERT_EQ(y.size(), oracle.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_NEAR(y[i], oracle[i], 1e-12) << "seed=" << seed;
    }
  }
}

TEST(Spmv, EmptyRowsOneByOneAndDiagonalFreeRows) {
  // 1x1 with a single entry.
  CsrBuilder one(1, 1);
  one.add(0, 0, 2.5);
  const CsrMatrix m1 = one.build();
  EXPECT_EQ(m1.mul(Vector{2.0})[0], 5.0);
  // 1x1 empty.
  const CsrMatrix m0 = CsrBuilder(1, 1).build();
  EXPECT_EQ(m0.mul(Vector{3.0})[0], 0.0);
  // Empty rows and diagonal-free rows against the dense oracle.
  CsrBuilder b(4, 4);
  b.add(0, 1, 1.0);   // row 0: diagonal-free
  b.add(0, 3, -2.0);
  b.add(2, 2, 4.0);   // rows 1 and 3: empty
  const CsrMatrix a = b.build();
  const Vector x = {1.0, 2.0, 3.0, 4.0};
  const Vector oracle = dense_mul(a, x);
  const Vector y = a.mul(x);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(y[i], oracle[i]);
  EXPECT_THROW(a.mul(Vector(3, 1.0)), std::invalid_argument);
}

}  // namespace
