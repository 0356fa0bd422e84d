#include "markov/transient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "resilience/solve_error.hpp"

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

/// Largest Poisson mean q * h one engine step covers. A longer step is
/// split into equal substeps, which bounds the weight tables and lets the
/// stationarity stop fire inside a long horizon.
constexpr double kMaxStepMean = 4096.0;

/// The request token is polled at the start of every substep and then
/// every this many terms within it.
constexpr std::size_t kCancelPollTerms = 64;

/// The one uniformization engine. For a chain and a step length h it
/// builds P^T and the Poisson weights of a = q h once; step() then
/// advances pi by h as often as asked, reusing its buffers, and integrates
/// any rate vectors it is given over the step. Once one substep moves pi
/// by at most `tolerance` in the 1-norm (and no more than the substep
/// before), pi is taken as stationary and stepping costs no more terms.
class Engine {
 public:
  Engine(const Ctmc& chain, double h, const TransientOptions& opts,
         const char* who)
      : opts_(opts), who_(who) {
    const auto [p, q] = chain.uniformized();
    pt_ = p.transposed();
    substeps_ = std::max(1.0, std::ceil(q * h / kMaxStepMean));
    h_ = h / substeps_;
    const double a = q * h_;
    // Weights of pi(h) = sum_k pmf_k v_k and of the integral
    // int_0^h r . pi(u) du = sum_k (1 - CDF_k) / q * r . v_k, each
    // truncated by its own tolerance test; the dropped tail is folded into
    // the last kept vector.
    const std::size_t cutoff = poisson_cutoff(a);
    double cumulative = 0.0;
    double weight_sum = 0.0;
    bool pmf_done = false;
    bool integral_done = false;
    for (std::size_t k = 0; !(pmf_done && integral_done); ++k) {
      const double w = poisson_pmf(a, k);
      cumulative += w;
      const bool past_mean = static_cast<double>(k) >= a;
      if (!pmf_done) {
        pmf_.push_back(w);
        if ((cumulative >= 1.0 - opts.tolerance && past_mean) ||
            k >= cutoff) {
          pmf_fold_ = 1.0 - cumulative;
          pmf_done = true;
        }
      }
      if (!integral_done) {
        const double iw = (1.0 - cumulative) / q;
        integral_.push_back(iw);
        if (iw > 0.0) weight_sum += iw;
        if ((h_ - weight_sum <= opts.tolerance * h_ && past_mean) ||
            k >= cutoff) {
          integral_fold_ = h_ - weight_sum;
          integral_done = true;
        }
      }
    }
  }

  /// pi <- pi(h). With `rates`, also adds int_0^h rates[j] . pi(u) du to
  /// acc[j].
  void step(linalg::Vector& pi, const std::vector<linalg::Vector>& rates = {},
            double* acc = nullptr) {
    for (double s = 0.0; s < substeps_; ++s) {
      if (stationary_) {
        const double rest = h_ * (substeps_ - s);
        for (std::size_t j = 0; j < rates.size(); ++j) {
          acc[j] += linalg::dot(rates[j], pi) * rest;
        }
        return;
      }
      substep(pi, rates, acc);
    }
  }

  bool stationary() const noexcept { return stationary_; }

 private:
  void substep(linalg::Vector& pi, const std::vector<linalg::Vector>& rates,
               double* acc) {
    const std::size_t last_pmf = pmf_.size() - 1;
    const std::size_t last_integral = integral_.size() - 1;
    const std::size_t last =
        rates.empty() ? last_pmf : std::max(last_pmf, last_integral);
    if (terms_ + last > opts_.max_terms) {
      throw resilience::SolveError(
          resilience::SolveCause::kBudgetExceeded, who_,
          "term budget of " + std::to_string(opts_.max_terms) +
              " spent before the distribution became stationary (increase "
              "max_terms or reduce the horizon)",
          terms_);
    }
    v_ = pi;  // v_k = pi P^k
    out_.assign(pi.size(), 0.0);
    sums_.assign(rates.size(), 0.0);
    for (std::size_t k = 0;; ++k) {
      if (k % kCancelPollTerms == 0) {
        robust::throw_if_stopped(opts_.cancel, who_, terms_);
      }
      if (k <= last_pmf) {
        if (pmf_[k] > 0.0) linalg::axpy(pmf_[k], v_, out_);
        if (k == last_pmf) linalg::axpy(pmf_fold_, v_, out_);
      }
      if (k <= last_integral) {
        for (std::size_t j = 0; j < rates.size(); ++j) {
          const double rv = linalg::dot(rates[j], v_);
          if (integral_[k] > 0.0) sums_[j] += integral_[k] * rv;
          if (k == last_integral) sums_[j] += integral_fold_ * rv;
        }
      }
      if (k == last) break;
      pt_.mul(v_, next_);
      v_.swap(next_);
      ++terms_;
    }
    if (obs::enabled()) {
      static obs::Counter& spmvs =
          obs::Registry::global().counter("transient.terms");
      spmvs.inc(last);
    }
    for (std::size_t j = 0; j < rates.size(); ++j) acc[j] += sums_[j];
    double change = 0.0;
    for (std::size_t i = 0; i < pi.size(); ++i) {
      change += std::abs(out_[i] - pi[i]);
    }
    stationary_ = change <= opts_.tolerance && change <= last_change_;
    last_change_ = change;
    pi.swap(out_);
  }

  const TransientOptions& opts_;
  const char* who_;
  linalg::CsrMatrix pt_;
  double substeps_ = 1.0;  // equal substeps per step, each of length h_
  double h_ = 0.0;
  std::vector<double> pmf_;       // Poisson(q h_) pmf up to its truncation
  double pmf_fold_ = 0.0;         // tail mass folded into the last term
  std::vector<double> integral_;  // (1 - CDF_k) / q up to its truncation
  double integral_fold_ = 0.0;    // residual integral weight, last term
  linalg::Vector v_, next_, out_, sums_;
  std::size_t terms_ = 0;  // SpMVs applied so far
  double last_change_ = std::numeric_limits<double>::infinity();
  bool stationary_ = false;
};

/// Integrals over (0, t) of rates[j] . pi(u) du, in one engine pass.
linalg::Vector integrate_rates(const Ctmc& chain, const linalg::Vector& pi0,
                               double t,
                               const std::vector<linalg::Vector>& rates,
                               const TransientOptions& opts, const char* who) {
  linalg::Vector acc(rates.size(), 0.0);
  if (t == 0.0) return acc;
  Engine engine(chain, t, opts, who);
  linalg::Vector pi = pi0;
  engine.step(pi, rates, acc.data());
  return acc;
}

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

}  // namespace

linalg::Vector transient_distribution(const Ctmc& chain,
                                      const linalg::Vector& pi0, double t,
                                      const TransientOptions& opts) {
  check_inputs(chain, pi0, t);
  linalg::Vector pi = pi0;
  if (t == 0.0) return pi;
  Engine engine(chain, t, opts, "transient_distribution");
  engine.step(pi);
  return pi;
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
                            std::size_t* stop_step) {
  check_inputs(chain, pi0, horizon);
  if (!(horizon > 0.0) || steps == 0) {
    throw std::invalid_argument("reward_curve: need positive horizon/steps");
  }
  Engine engine(chain, horizon / static_cast<double>(steps), opts,
                "reward_curve");
  const linalg::Vector r = chain.reward_vector();
  linalg::Vector curve(steps + 1);
  linalg::Vector pi = pi0;
  curve[0] = linalg::dot(r, pi);
  std::size_t k = 0;
  while (k < steps && !engine.stationary()) {
    engine.step(pi);
    curve[++k] = linalg::dot(r, pi);
  }
  // Stationary from grid point k on: every later point repeats it.
  std::fill(curve.begin() + static_cast<std::ptrdiff_t>(k) + 1, curve.end(),
            curve[k]);
  if (stop_step) *stop_step = k;
  if (obs::enabled() && k < steps) {
    static obs::Counter& skipped =
        obs::Registry::global().counter("transient.steps_skipped");
    skipped.inc(steps - k);
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
