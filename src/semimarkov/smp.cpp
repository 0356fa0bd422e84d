#include "semimarkov/smp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "markov/absorbing.hpp"
#include "markov/steady_state.hpp"
#include "obs/trace.hpp"
#include "robust/solve_error.hpp"

namespace rascad::semimarkov {

std::size_t SmpBuilder::add_state(std::string name, double reward,
                                  dist::DistributionPtr sojourn) {
  if (reward < 0.0) {
    throw std::invalid_argument("SmpBuilder: reward must be non-negative");
  }
  if (!index_.insert(name, states_.size(), [&](std::size_t i) -> auto& {
        return states_[i].name;
      })) {
    throw std::invalid_argument("SmpBuilder: duplicate state name '" + name +
                                "'");
  }
  states_.push_back({std::move(name), reward, std::move(sojourn)});
  return states_.size() - 1;
}

void SmpBuilder::add_transition(std::size_t from, std::size_t to,
                                double probability) {
  if (from >= states_.size() || to >= states_.size()) {
    throw std::out_of_range("SmpBuilder: transition endpoint out of range");
  }
  if (!(probability > 0.0) || probability > 1.0 + 1e-12) {
    throw std::invalid_argument("SmpBuilder: probability must be in (0, 1]");
  }
  arcs_.push_back({from, to, probability});
}

void SmpBuilder::set_sojourn(std::size_t state,
                             dist::DistributionPtr sojourn) {
  if (state >= states_.size()) {
    throw std::out_of_range("SmpBuilder::set_sojourn: state out of range");
  }
  if (!sojourn) {
    throw std::invalid_argument("SmpBuilder::set_sojourn: null distribution");
  }
  states_[state].sojourn = std::move(sojourn);
}

void SmpBuilder::set_exponential(
    std::size_t from,
    const std::vector<std::pair<std::size_t, double>>& rate_arcs) {
  if (from >= states_.size()) {
    throw std::out_of_range("SmpBuilder::set_exponential: state out of range");
  }
  if (rate_arcs.empty()) {
    throw std::invalid_argument("SmpBuilder::set_exponential: no arcs");
  }
  double total = 0.0;
  for (const auto& [to, rate] : rate_arcs) {
    if (to >= states_.size()) {
      throw std::out_of_range(
          "SmpBuilder::set_exponential: target out of range");
    }
    if (!(rate > 0.0)) {
      throw std::invalid_argument(
          "SmpBuilder::set_exponential: rate must be positive");
    }
    total += rate;
  }
  states_[from].sojourn = dist::exponential(total);
  for (const auto& [to, rate] : rate_arcs) {
    arcs_.push_back({from, to, rate / total});
  }
}

SemiMarkovProcess SmpBuilder::build() const {
  if (states_.empty()) {
    throw std::invalid_argument("SmpBuilder: process has no states");
  }
  markov::DtmcBuilder db;
  for (const State& s : states_) {
    if (!s.sojourn) {
      throw std::invalid_argument("SmpBuilder: state '" + s.name +
                                  "' has no sojourn distribution");
    }
    db.add_state(s.name);
  }
  for (const Arc& a : arcs_) db.add_transition(a.from, a.to, a.p);

  SemiMarkovProcess smp;
  smp.embedded_ = db.build();
  smp.states_.reserve(states_.size());
  for (const State& s : states_) {
    smp.states_.push_back({s.name, s.reward, s.sojourn});
  }
  return smp;
}

SemiMarkovProcess SmpBuilder::build_with_absorbing() const {
  if (states_.empty()) {
    throw std::invalid_argument("SmpBuilder: process has no states");
  }
  std::vector<double> out_mass(states_.size(), 0.0);
  for (const Arc& a : arcs_) out_mass[a.from] += a.p;

  markov::DtmcBuilder db;
  SemiMarkovProcess smp;
  smp.absorbing_.assign(states_.size(), false);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const State& s = states_[i];
    db.add_state(s.name);
    if (out_mass[i] == 0.0) {
      smp.absorbing_[i] = true;
    } else if (!s.sojourn) {
      throw std::invalid_argument("SmpBuilder: transient state '" + s.name +
                                  "' has no sojourn distribution");
    }
  }
  for (const Arc& a : arcs_) db.add_transition(a.from, a.to, a.p);
  // Embedded-chain convention: absorbing states self-loop.
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (smp.absorbing_[i]) db.add_transition(i, i, 1.0);
  }
  smp.embedded_ = db.build();
  smp.states_.reserve(states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const State& s = states_[i];
    smp.states_.push_back(
        {s.name, s.reward,
         s.sojourn ? s.sojourn : dist::deterministic(0.0)});
  }
  return smp;
}

std::optional<std::size_t> SemiMarkovProcess::find_state(
    const std::string& name) const {
  // The embedded chain carries the same names in the same order.
  return embedded_.find_state(name);
}

bool SemiMarkovProcess::is_absorbing(std::size_t i) const {
  if (i >= states_.size()) {
    throw std::out_of_range("SemiMarkovProcess::is_absorbing: out of range");
  }
  return !absorbing_.empty() && absorbing_[i];
}

double SemiMarkovProcess::mean_time_to_absorption(std::size_t start) const {
  if (start >= states_.size()) {
    throw std::out_of_range(
        "SemiMarkovProcess::mean_time_to_absorption: out of range");
  }
  if (std::find(absorbing_.begin(), absorbing_.end(), true) ==
      absorbing_.end()) {
    throw std::invalid_argument(
        "SemiMarkovProcess::mean_time_to_absorption: no absorbing states");
  }
  if (is_absorbing(start)) return 0.0;
  // Markov-renewal first passage: t_i = h_i + sum_j P_ij t_j.
  const markov::TransientSplit split =
      markov::split_transient(embedded_.transition_matrix(), absorbing_);
  linalg::Vector h(split.states.size());
  for (std::size_t k = 0; k < h.size(); ++k) {
    h[k] = states_[split.states[k]].sojourn->mean();
  }
  const linalg::Vector t = markov::checked_absorption_times(
      "SemiMarkovProcess::mean_time_to_absorption", split, h, {}, nullptr);
  return t[static_cast<std::size_t>(split.position[start])];
}

linalg::Vector SemiMarkovProcess::steady_state(
    const robust::CancelToken& cancel, markov::SolveTrace* trace) const {
  static constexpr const char* kWho = "SemiMarkovProcess::steady_state";
  if (std::find(absorbing_.begin(), absorbing_.end(), true) !=
      absorbing_.end()) {
    throw robust::SolveError(robust::SolveCause::kInvalidInput, kWho,
                             "process has absorbing states");
  }
  linalg::Vector pi = embedded_.stationary(cancel, trace);
  for (std::size_t i = 0; i < size(); ++i) {
    pi[i] *= states_[i].sojourn->mean();
  }
  const double time = linalg::sum(pi);
  if (time > 0.0 && std::isfinite(time)) linalg::scale(pi, 1.0 / time);
  // The ratio formula gets the same distribution check as the embedded
  // chain's answer.
  const markov::HealthReport report = markov::check_distribution(pi);
  if (!report.ok) {
    obs::emit_event("health.check_failed",
                    {{"episode", kWho}, {"detail", report.detail}});
    throw robust::SolveError(
        report.failure.value_or(robust::SolveCause::kNanOrInf), kWho,
        report.detail);
  }
  return pi;
}

double SemiMarkovProcess::steady_state_reward() const {
  const linalg::Vector pi = steady_state();
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += pi[i] * states_[i].reward;
  return acc;
}

}  // namespace rascad::semimarkov
