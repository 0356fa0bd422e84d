#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rascad::linalg {

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
}

double norm2(const Vector& v) noexcept {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double norm_inf(const Vector& v) noexcept {
  double s = 0.0;
  for (double x : v) s = std::max(s, std::abs(x));
  return s;
}

double sum(const Vector& v) noexcept {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

void axpy(double alpha, const Vector& w, Vector& v) {
  if (v.size() != w.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < v.size(); ++i) v[i] += alpha * w[i];
}

void scale(Vector& v, double alpha) noexcept {
  for (double& x : v) x *= alpha;
}

void normalize_sum(Vector& v) {
  const double s = sum(v);
  if (!(s > 0.0)) {
    throw std::domain_error("normalize_sum: vector sum is not positive");
  }
  scale(v, 1.0 / s);
}

double max_abs_diff(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("max_abs_diff: size mismatch");
  }
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

}  // namespace rascad::linalg
