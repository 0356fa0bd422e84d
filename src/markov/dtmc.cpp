#include "markov/dtmc.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "markov/absorbing.hpp"
#include "markov/steady_state.hpp"

namespace rascad::markov {

std::size_t DtmcBuilder::add_state(std::string name) {
  if (!index_.insert(name, names_.size(),
                     [&](std::size_t i) -> auto& { return names_[i]; })) {
    throw std::invalid_argument("DtmcBuilder: duplicate state name '" +
                                name + "'");
  }
  names_.push_back(std::move(name));
  return names_.size() - 1;
}

void DtmcBuilder::add_transition(std::size_t from, std::size_t to,
                                 double probability) {
  if (from >= names_.size() || to >= names_.size()) {
    throw std::out_of_range("DtmcBuilder: transition endpoint out of range");
  }
  if (!(probability > 0.0) || probability > 1.0 + 1e-12) {
    throw std::invalid_argument("DtmcBuilder: probability must be in (0, 1]");
  }
  arcs_.push_back({from, to, probability});
}

Dtmc DtmcBuilder::build(double row_sum_tolerance) const {
  if (names_.empty()) {
    throw std::invalid_argument("DtmcBuilder: chain has no states");
  }
  const std::size_t n = names_.size();
  linalg::CsrBuilder pb(n, n);
  pb.reserve(arcs_.size());
  std::vector<double> row_sum(n, 0.0);
  for (const Arc& a : arcs_) {
    pb.add(a.from, a.to, a.p);
    row_sum[a.from] += a.p;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(row_sum[i] - 1.0) > row_sum_tolerance) {
      throw std::invalid_argument("DtmcBuilder: row " + names_[i] +
                                  " does not sum to 1");
    }
  }
  Dtmc chain;
  chain.names_ = names_;
  chain.index_ = index_;
  chain.p_ = pb.build();
  return chain;
}

std::optional<std::size_t> Dtmc::find_state(const std::string& name) const {
  return index_.find(name,
                     [&](std::size_t i) -> auto& { return names_[i]; });
}

linalg::Vector Dtmc::stationary(const robust::CancelToken& cancel,
                                SolveTrace* trace) const {
  return checked_solve(
      "Dtmc::stationary", size(), cancel, trace,
      [&](std::size_t& bandwidth) {
        return gth_stationary(p_, cancel, &bandwidth);
      },
      [&](linalg::Vector& pi) {
        HealthReport report = check_distribution(pi);
        if (!report.ok) return report;
        // Independent fixed-point residual ||pi P - pi||_inf; P is
        // row-stochastic so no rate scaling is needed.
        linalg::Vector r = p_.mul_transpose(pi);
        for (std::size_t i = 0; i < r.size(); ++i) r[i] -= pi[i];
        report.residual_inf = linalg::norm_inf(r);
        if (!(report.residual_inf <= kResidualBound)) {
          report.ok = false;
          report.failure = robust::SolveCause::kNonConverged;
          std::ostringstream os;
          os << "independent residual " << report.residual_inf
             << " exceeds bound " << kResidualBound;
          report.detail = os.str();
        }
        return report;
      });
}

bool Dtmc::is_absorbing(std::size_t i) const {
  if (i >= size()) {
    throw std::out_of_range("Dtmc::is_absorbing: index out of range");
  }
  return p_.at(i, i) > 1.0 - 1e-12;
}

double Dtmc::expected_steps_to_absorption(std::size_t start) const {
  if (start >= size()) {
    throw std::out_of_range(
        "Dtmc::expected_steps_to_absorption: index out of range");
  }
  std::vector<bool> absorbing(size());
  for (std::size_t i = 0; i < size(); ++i) absorbing[i] = is_absorbing(i);
  if (std::find(absorbing.begin(), absorbing.end(), true) ==
      absorbing.end()) {
    throw std::invalid_argument(
        "Dtmc::expected_steps_to_absorption: no absorbing states");
  }
  if (absorbing[start]) return 0.0;
  // One step per stay: tau_i = 1 + sum_j P_ij tau_j over transient states.
  const TransientSplit split = split_transient(p_, absorbing);
  const linalg::Vector tau = checked_absorption_times(
      "Dtmc::expected_steps_to_absorption", split,
      linalg::Vector(split.states.size(), 1.0), {}, nullptr);
  return tau[static_cast<std::size_t>(split.position[start])];
}

linalg::Vector Dtmc::evolve(const linalg::Vector& start,
                            std::size_t steps) const {
  if (start.size() != size()) {
    throw std::invalid_argument("Dtmc::evolve: start size mismatch");
  }
  linalg::Vector v = start;
  for (std::size_t s = 0; s < steps; ++s) v = p_.mul_transpose(v);
  return v;
}

}  // namespace rascad::markov
