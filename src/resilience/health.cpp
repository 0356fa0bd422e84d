#include "resilience/health.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace rascad::resilience {

bool all_finite(const linalg::Vector& v) noexcept {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

HealthReport check_distribution(linalg::Vector& pi) {
  HealthReport report;
  if (!all_finite(pi)) {
    report.ok = false;
    report.failure = SolveCause::kNanOrInf;
    report.detail = "non-finite entries in probability vector";
    return report;
  }

  // Clamp negative entries, accounting for how much mass was discarded.
  double negative_mass = 0.0;
  for (double& x : pi) {
    if (x < 0.0) {
      negative_mass -= x;
      x = 0.0;
    }
  }
  report.clamped_mass = negative_mass;
  if (negative_mass > kClampTolerance) {
    report.ok = false;
    report.failure = SolveCause::kNanOrInf;
    std::ostringstream os;
    os << "negative probability mass " << negative_mass
       << " exceeds clamp tolerance " << kClampTolerance;
    report.detail = os.str();
    return report;
  }
  const double total = linalg::sum(pi);
  if (!(total > 0.0) || !std::isfinite(total)) {
    report.ok = false;
    report.failure = SolveCause::kNanOrInf;
    report.detail = "probability vector has no positive mass";
    return report;
  }
  // Only a clamp moves the mass: a solver's normalized vector is kept bit
  // for bit, so an episode's pi is the solver's pi.
  if (negative_mass > 0.0) linalg::scale(pi, 1.0 / total);
  return report;
}

HealthReport check_stationary(const markov::Ctmc& chain, linalg::Vector& pi) {
  if (pi.size() != chain.size()) {
    HealthReport report;
    report.ok = false;
    report.failure = SolveCause::kInvalidInput;
    report.detail = "stationary vector size mismatch";
    return report;
  }
  HealthReport report = check_distribution(pi);
  if (!report.ok) return report;

  // Independent residual re-check: recompute pi Q from the generator,
  // whatever the solver itself reported.
  report.residual_inf =
      linalg::norm_inf(chain.generator().mul_transpose(pi));
  const double scale = std::max(1.0, chain.generator().max_abs_diagonal());
  const double bound = kResidualBound * scale;
  if (!(report.residual_inf <= bound)) {
    report.ok = false;
    report.failure = SolveCause::kNonConverged;
    std::ostringstream os;
    os << "independent residual " << report.residual_inf
       << " exceeds bound " << bound;
    report.detail = os.str();
    return report;
  }
  return report;
}

HealthReport check_absorption_times(const linalg::CsrMatrix& a,
                                    const linalg::Vector& tau) {
  HealthReport report;
  if (tau.size() != a.rows()) {
    report.ok = false;
    report.failure = SolveCause::kInvalidInput;
    report.detail = "absorption time vector size mismatch";
    return report;
  }
  if (!all_finite(tau)) {
    report.ok = false;
    report.failure = SolveCause::kNanOrInf;
    report.detail = "non-finite mean times to absorption";
    return report;
  }
  for (double x : tau) {
    if (x < 0.0) {
      report.ok = false;
      report.failure = SolveCause::kNanOrInf;
      report.detail = "negative mean time to absorption";
      return report;
    }
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    double residual = -1.0;
    double scale = 1.0;
    for (std::size_t k = 0; k < row.size; ++k) {
      const double term = row.values[k] * tau[row.cols[k]];
      residual += term;
      scale += std::abs(term);
    }
    report.residual_inf =
        std::max(report.residual_inf, std::abs(residual) / scale);
  }
  if (!(report.residual_inf <= kResidualBound)) {
    report.ok = false;
    report.failure = SolveCause::kNonConverged;
    std::ostringstream os;
    os << "backward error " << report.residual_inf << " exceeds bound "
       << kResidualBound;
    report.detail = os.str();
  }
  return report;
}

}  // namespace rascad::resilience
