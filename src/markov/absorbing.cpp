#include "markov/absorbing.hpp"

#include <cmath>
#include <stdexcept>

#include "markov/steady_state.hpp"

namespace rascad::markov {

Ctmc make_absorbing(const Ctmc& chain,
                    const std::vector<StateIndex>& absorbing) {
  std::vector<bool> is_absorbing(chain.size(), false);
  for (StateIndex s : absorbing) {
    if (s >= chain.size()) {
      throw std::out_of_range("make_absorbing: state out of range");
    }
    is_absorbing[s] = true;
  }
  std::size_t absorbing_count = 0;
  for (bool b : is_absorbing) absorbing_count += b ? 1 : 0;
  if (absorbing_count == chain.size()) {
    throw std::invalid_argument("make_absorbing: no transient states left");
  }
  CtmcBuilder b;
  for (StateIndex i = 0; i < chain.size(); ++i) {
    b.add_state(chain.state_name(i), chain.reward(i));
  }
  const auto& q = chain.generator();
  for (StateIndex i = 0; i < chain.size(); ++i) {
    if (is_absorbing[i]) continue;
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] != i) b.add_transition(i, row.cols[k], row.values[k]);
    }
  }
  return b.build();
}

Ctmc make_down_states_absorbing(const Ctmc& chain) {
  return make_absorbing(chain, chain.down_states());
}

TransientSplit split_transient(const linalg::CsrMatrix& weights,
                               const std::vector<bool>& absorbing) {
  TransientSplit split;
  split.position.assign(weights.rows(), -1);
  for (StateIndex i = 0; i < weights.rows(); ++i) {
    if (absorbing[i]) continue;
    split.position[i] = static_cast<std::ptrdiff_t>(split.states.size());
    split.states.push_back(i);
  }
  const std::size_t m = split.states.size();
  linalg::CsrBuilder builder(m, m);
  split.exits.assign(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const auto row = weights.row(split.states[r]);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] == split.states[r]) continue;
      const std::ptrdiff_t c = split.position[row.cols[k]];
      if (c < 0) {
        split.exits[r] += row.values[k];
      } else {
        builder.add(r, static_cast<std::size_t>(c), row.values[k]);
      }
    }
  }
  split.weights = builder.build();
  return split;
}

AbsorbingAnalysis::AbsorbingAnalysis(const Ctmc& chain) : chain_(chain) {
  std::vector<bool> absorbing(chain.size());
  for (StateIndex i = 0; i < chain.size(); ++i) {
    absorbing[i] = chain.exit_rate(i) == 0.0;
    if (absorbing[i]) absorbing_.push_back(i);
  }
  if (absorbing_.empty()) {
    throw std::invalid_argument("AbsorbingAnalysis: no absorbing states");
  }
  if (absorbing_.size() == chain.size()) {
    throw std::invalid_argument("AbsorbingAnalysis: no transient states");
  }
  split_ = split_transient(chain.generator(), absorbing);
  tau_ = gth_absorption_times(split_.weights, split_.exits,
                              linalg::Vector(split_.states.size(), 1.0));
}

double AbsorbingAnalysis::mean_time_to_absorption(
    const linalg::Vector& initial) const {
  if (initial.size() != chain_.size()) {
    throw std::invalid_argument(
        "mean_time_to_absorption: initial size mismatch");
  }
  double acc = 0.0;
  for (std::size_t k = 0; k < split_.states.size(); ++k) {
    acc += initial[split_.states[k]] * tau_[k];
  }
  return acc;
}

double AbsorbingAnalysis::mean_time_to_absorption(StateIndex start) const {
  if (start >= chain_.size()) {
    throw std::out_of_range("mean_time_to_absorption: state out of range");
  }
  const std::ptrdiff_t pos = split_.position[start];
  if (pos < 0) return 0.0;  // already absorbed
  return tau_[static_cast<std::size_t>(pos)];
}

double AbsorbingAnalysis::absorption_probability(StateIndex start,
                                                 StateIndex target) const {
  if (start >= chain_.size() || target >= chain_.size()) {
    throw std::out_of_range("absorption_probability: state out of range");
  }
  if (chain_.exit_rate(target) != 0.0) {
    throw std::invalid_argument(
        "absorption_probability: target is not absorbing");
  }
  const std::ptrdiff_t spos = split_.position[start];
  if (spos < 0) return start == target ? 1.0 : 0.0;
  // Cost rate of transient state k: its rate into `target`. Accrued until
  // absorption, it adds up to the probability of landing there.
  linalg::Vector into_target(split_.states.size());
  for (std::size_t k = 0; k < split_.states.size(); ++k) {
    into_target[k] = chain_.generator().at(split_.states[k], target);
  }
  return gth_absorption_times(split_.weights, split_.exits,
                              into_target)[static_cast<std::size_t>(spos)];
}

double AbsorbingAnalysis::expected_visit_time(StateIndex start,
                                              StateIndex j) const {
  if (start >= chain_.size() || j >= chain_.size()) {
    throw std::out_of_range("expected_visit_time: state out of range");
  }
  const std::ptrdiff_t spos = split_.position[start];
  const std::ptrdiff_t jpos = split_.position[j];
  if (spos < 0 || jpos < 0) return 0.0;
  // Cost rate 1 in j and 0 elsewhere accrues the time spent in j.
  linalg::Vector in_j(split_.states.size(), 0.0);
  in_j[static_cast<std::size_t>(jpos)] = 1.0;
  return gth_absorption_times(split_.weights, split_.exits,
                              in_j)[static_cast<std::size_t>(spos)];
}

namespace {

/// Probability mass on the states that can still move (not yet absorbed).
double surviving_mass(const Ctmc& absorbing_chain, const linalg::Vector& pi) {
  double alive = 0.0;
  for (StateIndex i = 0; i < absorbing_chain.size(); ++i) {
    if (absorbing_chain.exit_rate(i) > 0.0) alive += pi[i];
  }
  return alive;
}

}  // namespace

double reliability_at(const Ctmc& absorbing_chain,
                      const linalg::Vector& initial, double t,
                      const TransientOptions& opts) {
  return surviving_mass(
      absorbing_chain,
      transient_distribution(absorbing_chain, initial, t, opts));
}

double hazard_rate(const Ctmc& absorbing_chain, const linalg::Vector& initial,
                   double t, double dt, const TransientOptions& opts) {
  if (!(dt > 0.0)) {
    throw std::invalid_argument("hazard_rate: dt must be positive");
  }
  // pi(t + dt) steps on from pi(t).
  const linalg::Vector pi_t =
      transient_distribution(absorbing_chain, initial, t, opts);
  const double r0 = surviving_mass(absorbing_chain, pi_t);
  const double r1 = surviving_mass(
      absorbing_chain, transient_distribution(absorbing_chain, pi_t, dt, opts));
  if (r0 <= 0.0 || r1 <= 0.0) return 0.0;
  return -(std::log(r1) - std::log(r0)) / dt;
}

}  // namespace rascad::markov
