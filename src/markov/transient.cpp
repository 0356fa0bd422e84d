#include "markov/transient.hpp"

#include "resilience/solve_error.hpp"

#include <cmath>
#include <stdexcept>

namespace rascad::markov {

namespace {

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

/// glibc's lgamma writes the global `signgam`, which races when reward
/// curves are sampled on the thread pool; lgamma_r keeps the sign local.
double log_gamma(double x) {
#if defined(__GLIBC__)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

/// Poisson(a) pmf at k, computed in log space so that large a is safe.
double poisson_pmf(double a, std::size_t k) {
  return std::exp(-a + static_cast<double>(k) * std::log(a) -
                  log_gamma(static_cast<double>(k) + 1.0));
}

/// Hard truncation point: the Poisson(a) mass beyond a + 12 sqrt(a) + 64
/// is far below double precision, so reaching this index means the summed
/// CDF has numerically saturated (rounding noise), not that mass is
/// missing. Used as a secondary stop after the tolerance test.
std::size_t poisson_cutoff(double a) {
  return static_cast<std::size_t>(a + 12.0 * std::sqrt(a) + 64.0);
}

/// Stationarity check: ||pi Q||_inf scaled by the uniformization rate.
bool is_stationary(const Ctmc& chain, const linalg::Vector& pi, double q) {
  const linalg::Vector flow = chain.generator().mul_transpose(pi);
  return linalg::norm_inf(flow) < 1e-10 * std::max(q, 1.0);
}

}  // namespace

linalg::Vector transient_distribution(const Ctmc& chain,
                                      const linalg::Vector& pi0, double t,
                                      const TransientOptions& opts) {
  check_inputs(chain, pi0, t);
  if (t == 0.0) return pi0;
  const auto [p, q] = chain.uniformized();
  // Steady-state detection: for horizons beyond the term budget, find a
  // shorter window after which the distribution is stationary; it is then
  // the distribution at t as well.
  if (q * t > 0.4 * static_cast<double>(opts.max_terms)) {
    double window = 512.0 / q;
    const double window_cap =
        0.2 * static_cast<double>(opts.max_terms) / q;
    while (window < t) {
      const linalg::Vector pi_w =
          transient_distribution(chain, pi0, window, opts);
      if (is_stationary(chain, pi_w, q)) return pi_w;
      if (window >= window_cap) break;
      window = std::min(window * 16.0, window_cap);
    }
  }
  const double a = q * t;
  // Transpose P once so every series term is a forward SpMV instead of a
  // scattered mul_transpose.
  const linalg::CsrMatrix pt = p.transposed();
  linalg::Vector v = pi0;  // v_k = pi0 P^k
  linalg::Vector pit(chain.size(), 0.0);
  double cumulative = 0.0;
  const std::size_t cutoff = poisson_cutoff(a);
  for (std::size_t k = 0; k < opts.max_terms; ++k) {
    const double w = poisson_pmf(a, k);
    if (w > 0.0) linalg::axpy(w, v, pit);
    cumulative += w;
    if ((cumulative >= 1.0 - opts.tolerance &&
         static_cast<double>(k) >= a) ||
        k >= cutoff) {
      // The dropped tail has mass < tolerance (or below the double-sum
      // noise floor past the cutoff); fold it into the current vector so
      // probabilities still sum to ~1.
      linalg::axpy(1.0 - cumulative, v, pit);
      return pit;
    }
    v = pt.mul(v);
  }
  throw resilience::SolveError(
      resilience::SolveCause::kBudgetExceeded, "transient_distribution",
      "Poisson truncation did not converge (increase max_terms or reduce "
      "the horizon)");
}

namespace {

/// Integral of r . pi(u) du over (0, t) for an arbitrary rate vector r —
/// shared by accumulated reward and the crossing-flow integrals.
double integrate_rate(const Ctmc& chain, const linalg::Vector& pi0, double t,
                      const linalg::Vector& r, const TransientOptions& opts);

}  // namespace

double accumulated_reward(const Ctmc& chain, const linalg::Vector& pi0,
                          double t, const TransientOptions& opts) {
  check_inputs(chain, pi0, t);
  if (t == 0.0) return 0.0;
  return integrate_rate(chain, pi0, t, chain.reward_vector(), opts);
}

namespace {

double integrate_rate(const Ctmc& chain, const linalg::Vector& pi0, double t,
                      const linalg::Vector& r, const TransientOptions& opts) {
  const auto [p, q] = chain.uniformized();
  // Steady-state detection for long horizons: when q*t would blow the term
  // budget, look for a much shorter window after which the chain has
  // mixed, integrate that window exactly, and extend with the stationary
  // rate r . pi_ss over the remainder.
  if (q * t > 0.4 * static_cast<double>(opts.max_terms)) {
    double window = 512.0 / q;
    const double window_cap =
        0.2 * static_cast<double>(opts.max_terms) / q;
    while (window < t) {
      const linalg::Vector pi_w =
          transient_distribution(chain, pi0, window, opts);
      if (is_stationary(chain, pi_w, q)) {
        const double head = integrate_rate(chain, pi0, window, r, opts);
        return head + linalg::dot(r, pi_w) * (t - window);
      }
      if (window >= window_cap) break;  // never mixes: fall through
      window = std::min(window * 16.0, window_cap);
    }
  }
  const double a = q * t;
  const linalg::CsrMatrix pt = p.transposed();
  linalg::Vector v = pi0;
  double acc = 0.0;
  double cumulative = 0.0;   // Poisson CDF up to the current term
  double weight_sum = 0.0;   // sum of integral weights, converges to t
  const std::size_t cutoff = poisson_cutoff(a);
  for (std::size_t k = 0; k < opts.max_terms; ++k) {
    cumulative += poisson_pmf(a, k);
    const double w = (1.0 - cumulative) / q;  // weight of v_k in the integral
    if (w > 0.0) {
      acc += w * linalg::dot(r, v);
      weight_sum += w;
    }
    if ((t - weight_sum <= opts.tolerance * t &&
         static_cast<double>(k) >= a) ||
        k >= cutoff) {
      // Attribute the residual integral mass to the current vector.
      acc += (t - weight_sum) * linalg::dot(r, v);
      return acc;
    }
    v = pt.mul(v);
  }
  throw resilience::SolveError(
      resilience::SolveCause::kBudgetExceeded, "accumulated_reward",
      "Poisson truncation did not converge (increase max_terms or reduce "
      "the horizon)");
}

}  // namespace

double expected_crossings(const Ctmc& chain, const linalg::Vector& pi0,
                          double t, bool up_to_down,
                          const TransientOptions& opts) {
  check_inputs(chain, pi0, t);
  if (t == 0.0) return 0.0;
  // Flow rate out of each source-class state into the other class.
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
  return integrate_rate(chain, pi0, t, flow, opts);
}

double interval_failure_rate(const Ctmc& chain, const linalg::Vector& pi0,
                             double t, const TransientOptions& opts) {
  const double up_time = accumulated_reward(chain, pi0, t, opts);
  if (up_time <= 0.0) return 0.0;
  return expected_crossings(chain, pi0, t, true, opts) / up_time;
}

double interval_recovery_rate(const Ctmc& chain, const linalg::Vector& pi0,
                              double t, const TransientOptions& opts) {
  const double up_time = accumulated_reward(chain, pi0, t, opts);
  const double down_time = t - up_time;
  if (down_time <= 0.0) return 0.0;
  return expected_crossings(chain, pi0, t, false, opts) / down_time;
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
                            const TransientOptions& opts) {
  check_inputs(chain, pi0, horizon);
  if (!(horizon > 0.0) || steps == 0) {
    throw std::invalid_argument("reward_curve: need positive horizon/steps");
  }
  const double h = horizon / static_cast<double>(steps);
  const linalg::Vector r = chain.reward_vector();
  linalg::Vector curve(steps + 1);
  linalg::Vector pi = pi0;
  curve[0] = linalg::dot(r, pi);
  for (std::size_t k = 1; k <= steps; ++k) {
    pi = transient_distribution(chain, pi, h, opts);
    curve[k] = linalg::dot(r, pi);
  }
  return curve;
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
