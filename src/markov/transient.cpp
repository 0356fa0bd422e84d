#include "markov/transient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "markov/absorbing.hpp"
#include "markov/steady_state.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "robust/solve_error.hpp"

namespace rascad::markov {

namespace {

using robust::SolveCause;
using robust::SolveError;

/// Largest Krylov dimension. A chain whose residual bound is still above
/// `tolerance` at this dimension is refused with kBudgetExceeded.
constexpr std::size_t kMaxDim = 128;

/// Largest stepped space written down directly instead of grown by
/// Arnoldi. Up to here the dense exponential of the whole space costs less
/// than factoring, growing and certifying a Krylov basis on the generated
/// families (docs/numerics.md has the measurement).
constexpr std::size_t kExactMax = 12;

/// The residual bound is evaluated every this many Arnoldi steps, and at
/// a breakdown or the last possible step.
constexpr std::size_t kBoundEvery = 8;

/// An Arnoldi step that keeps at most this fraction of the solved vector
/// after orthogonalization has (nearly) broken down: a direction grown
/// from what is left would be mostly rounding.
constexpr double kBreakdown = 1e-6;

/// The shift gamma of (I - gamma Q)^{-1}, in hours. A shift far below a
/// chain's slow time scales leaves those modes nearly degenerate in the
/// shift-inverted operator, and rounding then gives A_m unstable modes:
/// a tenth of the horizon failed on library blocks at horizons of 1 and
/// 24 h. 50 h passes every library and generated block at horizons from
/// 0.1 h to ten years, and on a year's curve of the generated chains it
/// needs the fewest Arnoldi steps.
constexpr double kShiftH = 50.0;

void check_inputs(const Ctmc& chain, const linalg::Vector& pi0, double t) {
  if (pi0.size() != chain.size()) {
    throw std::invalid_argument("transient: pi0 size mismatch");
  }
  if (!(t >= 0.0)) {
    throw std::invalid_argument("transient: time must be non-negative");
  }
  const double s = linalg::sum(pi0);
  if (std::abs(s - 1.0) > 1e-9) {
    throw std::invalid_argument("transient: pi0 must sum to 1");
  }
}

// ---- The small space ------------------------------------------------------

/// A row-major square matrix of the Krylov space (dimension <= kMaxDim+2).
struct Small {
  std::size_t n = 0;
  std::vector<double> a;
  explicit Small(std::size_t size = 0) : n(size), a(size * size, 0.0) {}
  double& operator()(std::size_t i, std::size_t j) { return a[i * n + j]; }
  double operator()(std::size_t i, std::size_t j) const { return a[i * n + j]; }
};

/// Magnitudes below this are set to 0 in the small space. Stiff modes
/// decay into the subnormal range within a few grid steps, and subnormal
/// arithmetic is ~100 times slower; 1e-200 is far below any tolerance.
constexpr double kNegligible = 1e-200;

double flush(double v) { return std::abs(v) < kNegligible ? 0.0 : v; }

Small identity(std::size_t n) {
  Small x(n);
  for (std::size_t i = 0; i < n; ++i) x(i, i) = 1.0;
  return x;
}

/// z <- x y, flushed; z may not alias x or y.
void multiply(const Small& x, const Small& y, Small& z) {
  z.n = x.n;
  z.a.assign(x.a.size(), 0.0);
  for (std::size_t i = 0; i < x.n; ++i) {
    for (std::size_t k = 0; k < x.n; ++k) {
      const double xik = x(i, k);
      if (xik == 0.0) continue;
      for (std::size_t j = 0; j < x.n; ++j) z(i, j) += xik * y(k, j);
    }
  }
  for (double& v : z.a) v = flush(v);
}

Small multiply(const Small& x, const Small& y) {
  Small z;
  multiply(x, y, z);
  return z;
}

/// y <- (I + f) y over the leading y.size() rows and columns of f;
/// `scratch` keeps the steps of a grid free of allocations.
void step(const Small& f, std::vector<double>& y, std::vector<double>& scratch) {
  scratch.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double* row = &f.a[i * f.n];
    double acc = 0.0;
    for (std::size_t j = 0; j < y.size(); ++j) acc += row[j] * y[j];
    scratch[i] = flush(y[i] + acc);
  }
  y.swap(scratch);
}

/// Solves x z = rhs in place of rhs (every column), by Gaussian
/// elimination with partial pivoting on a copy of x.
void solve(Small x, Small& rhs) {
  const std::size_t n = x.n;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(x(i, k)) > std::abs(x(p, k))) p = i;
    }
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(x(k, j), x(p, j));
        std::swap(rhs(k, j), rhs(p, j));
      }
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = x(i, k) / x(k, k);
      if (f == 0.0) continue;
      for (std::size_t j = k; j < n; ++j) x(i, j) -= f * x(k, j);
      for (std::size_t j = 0; j < n; ++j) rhs(i, j) -= f * rhs(k, j);
    }
  }
  for (std::size_t k = n; k-- > 0;) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = rhs(k, j);
      for (std::size_t i = k + 1; i < n; ++i) acc -= x(k, i) * rhs(i, j);
      rhs(k, j) = acc / x(k, k);
    }
  }
}

/// exp(x) - I by the (6, 6) Pade approximant, for ||x||_1 <= 1/2. With
/// exp(x) = d^{-1} n, n = v + u and d = v - u for the even part v and the
/// odd part u, exp(x) - I = d^{-1} (2 u): no cancellation against the
/// identity, so a slow mode keeps its digits.
Small pade_minus_identity(const Small& x) {
  static constexpr double c[] = {1.0,         1.0 / 2,     5.0 / 44,
                                 1.0 / 66,    1.0 / 792,   1.0 / 15840,
                                 1.0 / 665280};
  const std::size_t n = x.n;
  const Small x2 = multiply(x, x);
  const Small x4 = multiply(x2, x2);
  const Small x6 = multiply(x4, x2);
  Small even(n);  // c0 + c2 x^2 + c4 x^4 + c6 x^6
  Small odd(n);   // c1 + c3 x^2 + c5 x^4, times x below
  for (std::size_t k = 0; k < n * n; ++k) {
    even.a[k] = c[2] * x2.a[k] + c[4] * x4.a[k] + c[6] * x6.a[k];
    odd.a[k] = c[3] * x2.a[k] + c[5] * x4.a[k];
  }
  for (std::size_t i = 0; i < n; ++i) {
    even(i, i) += c[0];
    odd(i, i) += c[1];
  }
  const Small u = multiply(x, odd);
  Small twice_u(n);
  Small den(n);
  for (std::size_t k = 0; k < n * n; ++k) {
    twice_u.a[k] = 2 * u.a[k];
    den.a[k] = even.a[k] - u.a[k];
  }
  solve(den, twice_u);
  return twice_u;
}

/// f <- (I + f)^2 - I = f f + 2 f: squaring exp(x) while carrying exp(x) - I,
/// which keeps the absolute error of a near-identity mode at rounding
/// level instead of growing by 2 at every squaring. `scratch` keeps the
/// squarings free of allocations.
void square_minus_identity(Small& f, Small& scratch) {
  multiply(f, f, scratch);
  for (std::size_t k = 0; k < f.a.size(); ++k) {
    scratch.a[k] = flush(scratch.a[k] + 2 * f.a[k]);
  }
  std::swap(f, scratch);
}

/// (I + f)^count - I, by binary powering in the same carried form:
/// (I + p)(I + q) - I = p + q + p q. A cell's exponential raised to the
/// number of cells is the whole horizon's, with no per-cell stepping;
/// `count` is at least 1.
Small power_minus_identity(Small f, std::size_t count) {
  Small result;  // empty while the product is still I
  Small scratch;
  for (;;) {
    if (count & 1) {
      if (result.n == 0) {
        result = f;
      } else {
        multiply(result, f, scratch);
        for (std::size_t k = 0; k < f.a.size(); ++k) {
          scratch.a[k] = flush(scratch.a[k] + result.a[k] + f.a[k]);
        }
        std::swap(result, scratch);
      }
    }
    count >>= 1;
    if (count == 0) return result;
    square_minus_identity(f, scratch);
  }
}

double norm1(const Small& x) {
  double best = 0.0;
  for (std::size_t j = 0; j < x.n; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < x.n; ++i) col += std::abs(x(i, j));
    best = std::max(best, col);
  }
  return best;
}

/// Number of halvings that bring ||s x||_1 to at most 1 (the Pade step
/// then runs on half of that).
int halvings(const Small& x, double s) {
  const double norm = norm1(x) * s;
  return norm > 1.0 ? static_cast<int>(std::ceil(std::log2(norm))) : 0;
}

Small scaled(const Small& x, double s) {
  Small y = x;
  for (double& v : y.a) v *= s;
  return y;
}

/// The augmented generator [[a, v, 0], [0, 0, 1], [0, 0, 0]] of the small
/// space. exp(s aug) holds e^{s a} in its leading block; its column m is
/// [int_0^s e^{u a} v du; 1; 0] and its column m+1 is [the double
/// integral; s; 1], so one exponential gives a state, its integral and the
/// integral of that, with no quadrature.
Small augment(const Small& a, const std::vector<double>& v) {
  const std::size_t m = a.n;
  Small aug(m + 2);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) aug(i, j) = a(i, j);
    aug(i, m) = v[i];
  }
  aug(m, m + 1) = 1.0;
  return aug;
}

/// Column j of x, leading `rows` entries.
std::vector<double> column(const Small& x, std::size_t j, std::size_t rows) {
  std::vector<double> c(rows);
  for (std::size_t i = 0; i < rows; ++i) c[i] = x(i, j);
  return c;
}

/// (I + f)' c over the leading m x m block of f.
std::vector<double> product_transpose(const Small& f, const std::vector<double>& c) {
  const std::size_t m = c.size();
  std::vector<double> z = c;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) z[j] += f(i, j) * c[i];
  }
  return z;
}

/// y' g y for y of g.n entries (clamped at 0 against rounding).
double quadratic(const Small& g, const double* y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < g.n; ++i) {
    const double* row = &g.a[i * g.n];
    double gy = 0.0;
    for (std::size_t j = 0; j < g.n; ++j) gy += row[j] * y[j];
    acc += y[i] * gy;
  }
  return std::max(0.0, acc);
}

/// g + e' g e with e = I + f, over the leading g.n x g.n block of f.
void grow_gramian(Small& g, const Small& f) {
  const std::size_t m = g.n;
  Small ge = g;  // g e = g + g f
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < m; ++k) {
      const double gik = g(i, k);
      if (gik == 0.0) continue;
      for (std::size_t j = 0; j < m; ++j) ge(i, j) += gik * f(k, j);
    }
  }
  for (std::size_t k = 0; k < m * m; ++k) g.a[k] += ge.a[k];  // + I' g e
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i = 0; i < m; ++i) {
      const double fki = f(k, i);
      if (fki == 0.0) continue;
      for (std::size_t j = 0; j < m; ++j) g(i, j) += fki * ge(k, j);
    }
  }
  for (double& v : g.a) v = flush(v);
}

/// The small system y' = a y, y(0) = y0, over `cells` cells of length dt.
struct Propagation {
  Small f;                 // exp(dt a) - I, or exp(dt augment(a, y0)) - I
  std::vector<double> ys;  // y at every grid point, m entries each
  double integral = 0.0;   // bound on int_0^{cells dt} |c . y(s)| ds
};

/// Steps the small system over the grid and, given `c`, bounds
/// int_0^{cells dt} |c . y(s)| ds from above. `augmented` exponentiates
/// augment(a, y0), whose last two columns integrate y; otherwise the plain
/// m x m a. By Cauchy-Schwarz a cell of length l that starts at y
/// contributes at most sqrt(l y' G(l) y), with the Gramian
/// G(l) = int_0^l e^{s a'} c c' e^{s a} ds. G doubles along with the
/// exponential, G(2l) = G(l) + e^{l a'} G(l) e^{l a}, from Simpson's rule
/// on the short cell the Pade approximant starts on. The first cell is
/// split at every doubling, so a mode that dies out within a fraction of
/// it is charged on its own short cells.
Propagation propagate(const Small& a, const std::vector<double>& y0,
                      double dt, std::size_t cells,
                      const std::vector<double>* c, bool augmented) {
  const std::size_t m = a.n;
  Propagation out;
  const Small x = augmented ? augment(a, y0) : a;
  const int k = halvings(x, dt);
  double tau = std::ldexp(dt, -k);
  // The Pade approximant on half the first cell; one squaring gives the
  // cell, and Simpson's rule reads both.
  out.f = pade_minus_identity(scaled(x, tau / 2));
  Small& f = out.f;
  Small g(m);
  std::vector<double> y = y0;
  std::vector<double> scratch;
  Small square;
  std::vector<double> mid;
  if (c) mid = product_transpose(f, *c);
  square_minus_identity(f, square);
  if (c) {
    const std::vector<double> end = product_transpose(f, *c);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        g(i, j) = tau / 6 *
                  ((*c)[i] * (*c)[j] + 4 * mid[i] * mid[j] + end[i] * end[j]);
      }
    }
    out.integral += std::sqrt(tau * quadratic(g, y.data()));  // [0, tau]
    step(f, y, scratch);
  }
  for (int i = 0; i < k; ++i) {
    if (c) {
      out.integral += std::sqrt(tau * quadratic(g, y.data()));  // [tau, 2 tau]
      step(f, y, scratch);
      grow_gramian(g, f);
    }
    square_minus_identity(f, square);
    tau *= 2;
  }
  // The grid: y_k = e^{dt a} y_{k-1}, and each later cell's share of the
  // bound, in one allocation-free pass.
  out.ys.resize((cells + 1) * m);
  std::copy(y0.begin(), y0.end(), out.ys.begin());
  for (std::size_t cell = 1; cell <= cells; ++cell) {
    const double* prev = &out.ys[(cell - 1) * m];
    double* cur = &out.ys[cell * m];
    for (std::size_t i = 0; i < m; ++i) {
      const double* row = &f.a[i * f.n];
      double acc = 0.0;
      for (std::size_t j = 0; j < m; ++j) acc += row[j] * prev[j];
      cur[i] = flush(prev[i] + acc);
    }
    if (c && cell < cells) out.integral += std::sqrt(dt * quadratic(g, cur));
  }
  return out;
}

// ---- The engine -----------------------------------------------------------

/// x . y with four partial sums: Gram-Schmidt spends its time here, and
/// one running sum would serialize every add behind the one before.
double dot4(const linalg::Vector& x, const linalg::Vector& y) {
  const std::size_t n = x.size();
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    s0 += x[k] * y[k];
    s1 += x[k + 1] * y[k + 1];
    s2 += x[k + 2] * y[k + 2];
    s3 += x[k + 3] * y[k + 3];
  }
  for (; k < n; ++k) s0 += x[k] * y[k];
  return (s0 + s1) + (s2 + s3);
}

/// The one transient engine: delta(t) ~ V y(t), y' = A y, on a basis V of
/// the space the stepped vector moves in, stepped over [0, horizon].
///
/// States with no exit (absorbing) drop out: the engine steps the others
/// under the sub-generator W and recovers the absorbed mass from the
/// integrated flux into each absorbing state. When every state has an
/// exit and the chain is irreducible, it steps the deviation
/// delta = pi - pi_inf from the GTH stationary vector, which leaves
/// t = infinity exact. A stepped space of dimension at most kExactMax is
/// written down directly: in deviation form the zero-sum vectors
/// e_k - e_ref (ref the state of largest pi_inf), with A = P Q' V for P
/// the rows k != ref, and otherwise the unit vectors, with A = W' (Q' for
/// a reducible chain). There Q'V = V A holds exactly and the error bound
/// is 0. A larger space takes shift-and-invert Arnoldi on
/// (I - gamma Q')^{-1}: V_m spans delta_0 = beta v_1 and the
/// shift-inverted generator's images of it, y(0) = beta e_1, and A_m =
/// I/gamma - H_m^{-1} from the Arnoldi Hessenberg H_m of the factored
/// operator. The Arnoldi relation makes the residual R = Q'V_m - V_m A_m
/// rank one, h_{m+1,m} (I/gamma - Q') v_{m+1} e_m' H_m^{-1}, and e^{Qt} is
/// a contraction in the 1-norm, so the error of pi(t) is at most
/// int_0^t ||R y(s)||_1 ds for every t <= horizon. The dimension grows
/// until that bound meets `tolerance`.
///
/// `integrals` says whether the caller reads int y (interval measures,
/// absorbed mass, an average). Only then is the exponential taken of the
/// augmented matrix, whose last two columns integrate y once and twice;
/// the horizon's integrals come from that cell's exponential raised to
/// the number of cells. They are never formed as A^{-1} (y(t) - y(0)):
/// that difference carries rounding of the size of y(0), which the solve
/// divides by A's slowest eigenvalue.
class Engine {
 public:
  Engine(const Ctmc& chain, const linalg::Vector& pi0, double horizon,
         std::size_t cells, const TransientOptions& opts, const char* who,
         bool integrals)
      : chain_(chain), pi0_(pi0), cells_(cells), dt_(horizon / cells) {
    const std::size_t n = chain.size();
    std::vector<bool> absorbing(n);
    for (StateIndex i = 0; i < n; ++i) {
      absorbing[i] = chain.exit_rate(i) == 0.0;
      if (absorbing[i]) absorbed_.push_back(i);
    }
    TransientSplit split;  // the sub-generator, with absorbing states
    const linalg::CsrMatrix* weights = &chain.generator();
    linalg::Vector exits(n, 0.0);
    if (absorbed_.empty()) {
      active_.resize(n);
      for (StateIndex i = 0; i < n; ++i) active_[i] = i;
      try {
        pi_inf_ = gth_stationary(chain.generator(), opts.cancel);
        deviation_ = true;
      } catch (const SolveError& e) {
        // Reducible: no unique pi_inf to step the deviation from.
        if (e.cause() != SolveCause::kInvalidInput) throw;
        pi_inf_.assign(n, 0.0);
      }
    } else {
      split = split_transient(chain.generator(), absorbing);
      active_ = split.states;
      weights = &split.weights;
      exits = split.exits;
      pi_inf_.assign(active_.size(), 0.0);
    }
    augmented_ = integrals;
    const std::size_t na = active_.size();
    linalg::Vector delta(na);
    for (std::size_t k = 0; k < na; ++k) delta[k] = pi0[active_[k]] - pi_inf_[k];
    if (deviation_) drop_stationary(delta);
    if (na == 0 || linalg::norm2(delta) == 0.0 || horizon == 0.0) {
      return;  // pi is constant
    }

    // out_i of the stepped states: the diagonal of -W.
    linalg::Vector out = exits;
    for (std::size_t r = 0; r < na; ++r) {
      const auto row = weights->row(r);
      for (std::size_t k = 0; k < row.size; ++k) {
        if (row.cols[k] != r) out[r] += row.values[k];
      }
    }
    // The dimension of the space delta can reach: the zero-sum vectors in
    // deviation form (pi - pi_inf always sums to 0), everything otherwise.
    const std::size_t space = deviation_ ? na - 1 : na;
    if (space <= kExactMax) {
      write_basis(delta, out, *weights, opts, who);
    } else {
      grow_basis(std::move(delta), std::move(exits), out, *weights, opts, who,
                 space);
    }

    if (obs::enabled()) {
      static obs::Counter& dims =
          obs::Registry::global().counter("transient.krylov_dim");
      static obs::Counter& solves =
          obs::Registry::global().counter("transient.banded_solves");
      static obs::Counter& exact =
          obs::Registry::global().counter("transient.exact_basis");
      static obs::Histogram& bounds =
          obs::Registry::global().histogram("transient.error_bound");
      dims.inc(dim_);
      solves.inc(solves_);
      if (exact_) exact.inc();
      bounds.observe_ms(bound_ / opts.tolerance);
    }
  }

  std::size_t dim() const noexcept { return dim_; }
  double bound() const noexcept { return bound_; }
  bool exact() const noexcept { return exact_; }

  /// r . pi(k dt) for k = 0..cells; `average` (optional) receives the
  /// time average of r . pi over [0, cells dt] from the same exponential.
  linalg::Vector curve(const linalg::Vector& r, double* average) const {
    const std::size_t m = dim_;
    // r . pi(t) = r . pi_inf + r_abs . pi0_abs + u . y(t) + g . z(t), with
    // u = V' r and g = V' (the reward-weighted flux into absorbing states).
    double base = 0.0;
    for (std::size_t k = 0; k < active_.size(); ++k) {
      base += pi_inf_[k] * r[active_[k]];
    }
    for (const StateIndex a : absorbed_) base += pi0_[a] * r[a];
    linalg::Vector curve(cells_ + 1, base);
    curve[0] = linalg::dot(r, pi0_);
    if (average) *average = base;
    if (m == 0) return curve;
    const std::vector<double> u = coordinates(r);
    std::vector<double> g(m, 0.0);
    const linalg::Vector flux = absorbed_flux(r);
    bool any_flux = false;
    for (const double f : flux) any_flux = any_flux || f != 0.0;
    if (any_flux) g = coordinates(flux);
    // y on the grid comes from the propagation; with absorbed flux its
    // integral z steps as the augmented column [z; 1; 0].
    std::vector<double> z(m + 2, 0.0);
    std::vector<double> scratch;
    z[m] = 1.0;
    for (std::size_t k = 1; k <= cells_; ++k) {
      const double* y = &small_.ys[k * m];
      if (any_flux) step(small_.f, z, scratch);
      double acc = base;
      for (std::size_t i = 0; i < m; ++i) acc += u[i] * y[i];
      if (any_flux) {
        for (std::size_t i = 0; i < m; ++i) acc += g[i] * z[i];
      }
      curve[k] = acc;
    }
    if (average) {
      // int_0^T r . pi = T base + u . z(T) + g . w(T), with z(T) and w(T)
      // in columns m and m + 1 of the horizon's exponential.
      const Small whole = power_minus_identity(small_.f, cells_);
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        acc += u[i] * whole(i, m) + g[i] * whole(i, m + 1);
      }
      *average = base + acc / (dt_ * static_cast<double>(cells_));
    }
    return curve;
  }

  /// pi(horizon) (`integrated` false) or int_0^horizon pi(u) du (true),
  /// over one cell.
  linalg::Vector distribution(bool integrated) const {
    const double t = dt_;
    const std::size_t m = dim_;
    linalg::Vector pi(chain_.size(), 0.0);
    const double w = integrated ? t : 1.0;
    for (std::size_t k = 0; k < active_.size(); ++k) {
      pi[active_[k]] = pi_inf_[k] * w;
    }
    for (const StateIndex a : absorbed_) pi[a] = pi0_[a] * w;
    if (m == 0) {
      if (!integrated) pi = pi0_;
      return pi;
    }
    // Active part: V times y (point) or z (integral); absorbed part: the
    // flux into each absorbing state, integrated once (point) or twice.
    // exp(dt aug) - I holds z(dt) in column m and the integral of z in
    // column m + 1.
    const std::vector<double> state =
        integrated ? column(small_.f, m, m)
                   : std::vector<double>(small_.ys.begin() + m,
                                         small_.ys.begin() + 2 * m);
    linalg::Vector active(active_.size(), 0.0);
    for (std::size_t i = 0; i < m; ++i) linalg::axpy(state[i], basis_[i], active);
    for (std::size_t k = 0; k < active_.size(); ++k) pi[active_[k]] += active[k];
    if (!absorbed_.empty()) {
      const std::vector<double> inflow = column(small_.f, integrated ? m + 1 : m, m);
      linalg::Vector mass(active_.size(), 0.0);
      for (std::size_t i = 0; i < m; ++i) {
        linalg::axpy(inflow[i], basis_[i], mass);
      }
      const auto& q = chain_.generator();
      for (std::size_t k = 0; k < active_.size(); ++k) {
        const auto row = q.row(active_[k]);
        for (std::size_t e = 0; e < row.size; ++e) {
          if (chain_.exit_rate(row.cols[e]) == 0.0) {
            pi[row.cols[e]] += row.values[e] * mass[k];
          }
        }
      }
    }
    return pi;
  }

 private:
  /// x <- x - (1'x) pi_inf: the spectral projection onto the zero-sum
  /// vectors, which commutes with Q'. delta(t) has no pi_inf component;
  /// rounding gives its Krylov vectors one that the shift-inverted
  /// operator (largest eigenvalue gamma, along pi_inf) would grow.
  void drop_stationary(linalg::Vector& x) const {
    const double mass = linalg::sum(x);
    linalg::axpy(-mass, pi_inf_, x);
  }

  /// V' x over the stepped states of x (a vector over every state).
  std::vector<double> coordinates(const linalg::Vector& x) const {
    std::vector<double> c(dim_);
    for (std::size_t i = 0; i < dim_; ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k < active_.size(); ++k) {
        acc += basis_[i][k] * x[active_[k]];
      }
      c[i] = acc;
    }
    return c;
  }

  /// Per stepped state: sum over its arcs into absorbing states of rate
  /// times that state's reward.
  linalg::Vector absorbed_flux(const linalg::Vector& r) const {
    linalg::Vector flux(chain_.size(), 0.0);
    if (absorbed_.empty()) return flux;
    const auto& q = chain_.generator();
    for (const StateIndex s : active_) {
      const auto row = q.row(s);
      for (std::size_t e = 0; e < row.size; ++e) {
        if (chain_.exit_rate(row.cols[e]) == 0.0) {
          flux[s] += row.values[e] * r[row.cols[e]];
        }
      }
    }
    return flux;
  }

  /// The basis written down: zero-sum coordinates e_k - e_ref in deviation
  /// form, unit vectors otherwise, and A = P Q' V from the generator's
  /// entries. No factorization, no Arnoldi and no bound.
  void write_basis(const linalg::Vector& delta, const linalg::Vector& out,
                   const linalg::CsrMatrix& weights,
                   const TransientOptions& opts, const char* who) {
    robust::throw_if_stopped(opts.cancel, who, 0);
    const std::size_t na = active_.size();
    std::size_t ref = na;  // no reference state outside deviation form
    if (deviation_) {
      ref = static_cast<std::size_t>(
          std::max_element(pi_inf_.begin(), pi_inf_.end()) - pi_inf_.begin());
    }
    Small qt(na);  // Q' on the stepped states
    for (std::size_t r = 0; r < na; ++r) {
      const auto row = weights.row(r);
      for (std::size_t k = 0; k < row.size; ++k) {
        if (row.cols[k] != r) qt(row.cols[k], r) += row.values[k];
      }
      qt(r, r) = -out[r];
    }
    std::vector<std::size_t> keep;
    for (std::size_t k = 0; k < na; ++k) {
      if (k != ref) keep.push_back(k);
    }
    const std::size_t m = keep.size();
    Small a(m);
    std::vector<double> y0(m);
    for (std::size_t i = 0; i < m; ++i) {
      y0[i] = delta[keep[i]];
      for (std::size_t j = 0; j < m; ++j) {
        a(i, j) = qt(keep[i], keep[j]);
        if (deviation_) a(i, j) -= qt(keep[i], ref);
      }
      linalg::Vector v(na, 0.0);
      v[keep[i]] = 1.0;
      if (deviation_) v[ref] = -1.0;
      basis_.push_back(std::move(v));
    }
    dim_ = m;
    exact_ = true;
    small_ = propagate(a, y0, dt_, cells_, nullptr, augmented_);
  }

  /// Grows the Arnoldi basis from delta until certify accepts it.
  void grow_basis(linalg::Vector delta, linalg::Vector exits,
                  const linalg::Vector& out, const linalg::CsrMatrix& weights,
                  const TransientOptions& opts, const char* who,
                  std::size_t space) {
    const double gamma = kShiftH;
    for (double& e : exits) e += 1.0 / gamma;
    const GthFactor factor(weights, exits, opts.cancel);

    // A basis grown past the reachable space would take in pi_inf's
    // direction, whose eigenvalue 0 rounding moves off.
    const double beta = linalg::norm2(delta);
    linalg::scale(delta, 1.0 / beta);
    basis_.push_back(std::move(delta));
    std::vector<std::vector<double>> h;  // h[j]: column j of H, j + 2 rows
    for (std::size_t j = 0;; ++j) {
      robust::throw_if_stopped(opts.cancel, who, j);
      linalg::Vector x = basis_[j];
      factor.solve_row(x);
      ++solves_;
      if (deviation_) drop_stationary(x);
      const double solved = linalg::norm2(x);
      // Classical Gram-Schmidt, twice: one pass loses the orthogonality
      // the residual bound rests on.
      std::vector<double> col(j + 2, 0.0);
      std::vector<double> p(j + 1);
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i <= j; ++i) p[i] = dot4(basis_[i], x);
        for (std::size_t i = 0; i <= j; ++i) {
          linalg::axpy(-p[i], basis_[i], x);
          col[i] += p[i];
        }
      }
      col[j + 1] = linalg::norm2(x);
      const std::size_t m = j + 1;
      // Near a breakdown the basis (nearly) spans an invariant subspace
      // and the next direction would be mostly rounding: certify here. The
      // space delta can reach is spanned once m is its dimension.
      const bool breakdown = col[j + 1] <= kBreakdown * solved;
      const bool last = m == space || m == kMaxDim;
      if (col[j + 1] > 0.0) linalg::scale(x, 1.0 / col[j + 1]);
      // Normalizing a small remainder scales up the rounding it carries
      // along pi_inf; left in, it compounds through the next steps'
      // Gram-Schmidt until the basis leaves the zero-sum space.
      if (deviation_) drop_stationary(x);
      h.push_back(std::move(col));
      if (breakdown || last || m % kBoundEvery == 0) {
        if (certify(h, m, gamma, beta, x, out, weights, opts)) break;
        if (last) {
          std::ostringstream os;
          os << "residual bound " << bound_ << " above tolerance "
             << opts.tolerance << " at Krylov dimension " << m;
          throw SolveError(SolveCause::kBudgetExceeded, who, os.str(),
                           solves_, bound_);
        }
      }
      basis_.push_back(std::move(x));
    }
    basis_.resize(dim_);
  }

  /// Forms A_m and the residual bound at dimension m; keeps them and
  /// returns true when the bound meets the tolerance.
  bool certify(const std::vector<std::vector<double>>& h, std::size_t m,
               double gamma, double beta, const linalg::Vector& next,
               const linalg::Vector& out, const linalg::CsrMatrix& weights,
               const TransientOptions& opts) {
    Small hm(m);
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t i = 0; i < std::min(m, j + 2); ++i) hm(i, j) = h[j][i];
    }
    Small inv = identity(m);
    solve(hm, inv);
    Small a(m);
    for (std::size_t k = 0; k < m * m; ++k) a.a[k] = -inv.a[k];
    for (std::size_t i = 0; i < m; ++i) a(i, i) += 1.0 / gamma;
    // c = H_m^{-T} e_m: the last row of H_m^{-1}.
    std::vector<double> c(m);
    for (std::size_t j = 0; j < m; ++j) c[j] = inv(m - 1, j);
    // rho = h_{m+1,m} || (I/gamma - Q') v_{m+1} ||_1, the 1-norm of R
    // over |c . y|.
    const double hnext = h[m - 1][m];
    double rho = 0.0;
    if (hnext > 0.0) {
      linalg::Vector qv(next.size(), 0.0);  // Q' v
      for (std::size_t r = 0; r < next.size(); ++r) {
        const auto row = weights.row(r);
        for (std::size_t k = 0; k < row.size; ++k) {
          if (row.cols[k] != r) qv[row.cols[k]] += row.values[k] * next[r];
        }
        qv[r] -= out[r] * next[r];
      }
      for (std::size_t r = 0; r < next.size(); ++r) {
        rho += std::abs(next[r] / gamma - qv[r]);
      }
      rho *= hnext;
    }
    std::vector<double> y0(m, 0.0);
    y0[0] = beta;
    Propagation p =
        propagate(a, y0, dt_, cells_, rho > 0.0 ? &c : nullptr, augmented_);
    bound_ = rho * p.integral;
    // A non-finite exponential (a basis gone bad in rounding) certifies
    // nothing.
    for (const double v : p.f.a) {
      if (!std::isfinite(v)) bound_ = std::numeric_limits<double>::infinity();
    }
    if (!(bound_ <= opts.tolerance)) return false;
    dim_ = m;
    small_ = std::move(p);
    return true;
  }

  const Ctmc& chain_;
  const linalg::Vector& pi0_;
  std::size_t cells_;
  double dt_;
  std::vector<StateIndex> active_;    // stepped states
  std::vector<StateIndex> absorbed_;  // states with no exit
  linalg::Vector pi_inf_;             // on the stepped states; 0 without one
  bool deviation_ = false;  // stepping pi - pi_inf
  bool augmented_ = false;  // integrals read: augment(a, y0) exponentiated
  std::vector<linalg::Vector> basis_;
  std::size_t dim_ = 0;  // m (0 while pi is constant)
  bool exact_ = false;   // basis written down, not grown
  Propagation small_;    // A's exponential and y on the grid
  double bound_ = 0.0;
  std::size_t solves_ = 0;
};

/// Flow rate out of each source-class state into the other class: the
/// integrand of the expected up->down (or down->up) crossings.
linalg::Vector crossing_flow(const Ctmc& chain, bool up_to_down) {
  linalg::Vector flow(chain.size(), 0.0);
  const auto& q = chain.generator();
  for (StateIndex i = 0; i < chain.size(); ++i) {
    const bool i_up = chain.reward(i) > 0.0;
    if (i_up != up_to_down) continue;
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      const StateIndex j = row.cols[k];
      if (j == i) continue;
      const bool j_up = chain.reward(j) > 0.0;
      if (j_up != i_up) flow[i] += row.values[k];
    }
  }
  return flow;
}

/// Integrals over (0, t) of rates[j] . pi(u) du, from one engine.
linalg::Vector integrate_rates(const Ctmc& chain, const linalg::Vector& pi0,
                               double t,
                               const std::vector<linalg::Vector>& rates,
                               const TransientOptions& opts, const char* who) {
  linalg::Vector acc(rates.size(), 0.0);
  if (t == 0.0) return acc;
  const Engine engine(chain, pi0, t, 1, opts, who, true);
  const linalg::Vector occupancy = engine.distribution(true);
  for (std::size_t j = 0; j < rates.size(); ++j) {
    acc[j] = linalg::dot(rates[j], occupancy);
  }
  return acc;
}

}  // namespace

linalg::Vector transient_distribution(const Ctmc& chain,
                                      const linalg::Vector& pi0, double t,
                                      const TransientOptions& opts) {
  check_inputs(chain, pi0, t);
  if (t == 0.0) return pi0;
  // Absorbed mass is the integrated flux into the absorbing states.
  bool absorbing = false;
  for (StateIndex i = 0; i < chain.size(); ++i) {
    absorbing = absorbing || chain.exit_rate(i) == 0.0;
  }
  return Engine(chain, pi0, t, 1, opts, "transient_distribution", absorbing)
      .distribution(false);
}

double accumulated_reward(const Ctmc& chain, const linalg::Vector& pi0,
                          double t, const TransientOptions& opts) {
  check_inputs(chain, pi0, t);
  return integrate_rates(chain, pi0, t, {chain.reward_vector()}, opts,
                         "accumulated_reward")[0];
}

double expected_crossings(const Ctmc& chain, const linalg::Vector& pi0,
                          double t, bool up_to_down,
                          const TransientOptions& opts) {
  check_inputs(chain, pi0, t);
  return integrate_rates(chain, pi0, t, {crossing_flow(chain, up_to_down)},
                         opts, "expected_crossings")[0];
}

IntervalMeasures interval_measures(const Ctmc& chain,
                                   const linalg::Vector& pi0, double t,
                                   const TransientOptions& opts) {
  if (!(t > 0.0)) {
    throw std::invalid_argument("interval_measures: t must be positive");
  }
  check_inputs(chain, pi0, t);
  // The down time is integrated as its own rate, not taken as t minus the
  // up time: when 1 - A is small that difference cancels most digits.
  linalg::Vector down(chain.size(), 0.0);
  for (const StateIndex i : chain.down_states()) down[i] = 1.0;
  const linalg::Vector acc = integrate_rates(
      chain, pi0, t,
      {chain.reward_vector(), crossing_flow(chain, true),
       crossing_flow(chain, false), std::move(down)},
      opts, "interval_measures");
  const double up_time = acc[0];
  const double down_time = acc[3];
  IntervalMeasures m;
  m.availability = up_time / t;
  m.failure_rate = up_time > 0.0 ? acc[1] / up_time : 0.0;
  m.recovery_rate = down_time > 0.0 ? acc[2] / down_time : 0.0;
  return m;
}

double interval_failure_rate(const Ctmc& chain, const linalg::Vector& pi0,
                             double t, const TransientOptions& opts) {
  return interval_measures(chain, pi0, t, opts).failure_rate;
}

double interval_recovery_rate(const Ctmc& chain, const linalg::Vector& pi0,
                              double t, const TransientOptions& opts) {
  return interval_measures(chain, pi0, t, opts).recovery_rate;
}

double interval_availability(const Ctmc& chain, const linalg::Vector& pi0,
                             double t, const TransientOptions& opts) {
  if (!(t > 0.0)) {
    throw std::invalid_argument("interval_availability: t must be positive");
  }
  return accumulated_reward(chain, pi0, t, opts) / t;
}

double point_availability(const Ctmc& chain, const linalg::Vector& pi0,
                          double t, const TransientOptions& opts) {
  const linalg::Vector pit = transient_distribution(chain, pi0, t, opts);
  double acc = 0.0;
  for (StateIndex i = 0; i < chain.size(); ++i) {
    acc += pit[i] * chain.reward(i);
  }
  return acc;
}

linalg::Vector reward_curve(const Ctmc& chain, const linalg::Vector& pi0,
                            double horizon, std::size_t steps,
                            const TransientOptions& opts,
                            TransientStats* stats, double* average) {
  check_inputs(chain, pi0, horizon);
  if (!(horizon > 0.0) || steps == 0) {
    throw std::invalid_argument("reward_curve: need positive horizon/steps");
  }
  // Reward held in an absorbing state accrues with the integrated flux.
  bool absorbed_reward = false;
  for (StateIndex i = 0; i < chain.size(); ++i) {
    absorbed_reward = absorbed_reward ||
                      (chain.exit_rate(i) == 0.0 && chain.reward(i) != 0.0);
  }
  const Engine engine(chain, pi0, horizon, steps, opts, "reward_curve",
                      average != nullptr || absorbed_reward);
  if (stats) *stats = {engine.dim(), engine.bound(), engine.exact()};
  return engine.curve(chain.reward_vector(), average);
}

linalg::Vector point_mass(const Ctmc& chain, StateIndex state) {
  if (state >= chain.size()) {
    throw std::out_of_range("point_mass: state out of range");
  }
  linalg::Vector v(chain.size(), 0.0);
  v[state] = 1.0;
  return v;
}

}  // namespace rascad::markov
