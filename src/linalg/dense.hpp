// Dense vector primitives used by the Markov and RBD engines.
//
// Vector is the numeric core's vector type. Every matrix is a CsrMatrix
// (csr.hpp), and the exact solvers are banded GTH elimination in
// markov/steady_state.hpp.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace rascad::linalg {

using Vector = std::vector<double>;

double dot(const Vector& a, const Vector& b);
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
