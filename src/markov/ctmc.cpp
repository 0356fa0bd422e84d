#include "markov/ctmc.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace rascad::markov {

StateIndex CtmcBuilder::add_state(std::string name, double reward) {
  if (reward < 0.0) {
    throw std::invalid_argument("CtmcBuilder: reward must be non-negative");
  }
  if (!index_.emplace(name, states_.size()).second) {
    throw std::invalid_argument("CtmcBuilder: duplicate state name '" + name +
                                "'");
  }
  states_.push_back({std::move(name), reward});
  return states_.size() - 1;
}

void CtmcBuilder::add_transition(StateIndex from, StateIndex to, double rate) {
  if (from >= states_.size() || to >= states_.size()) {
    throw std::out_of_range("CtmcBuilder: transition endpoint out of range");
  }
  if (from == to) {
    throw std::invalid_argument("CtmcBuilder: self-loops are not allowed");
  }
  if (!(rate > 0.0)) {
    throw std::invalid_argument("CtmcBuilder: rate must be positive");
  }
  arcs_.push_back({from, to, rate});
}

std::optional<StateIndex> CtmcBuilder::find_state(
    const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Ctmc CtmcBuilder::build() const {
  if (states_.empty()) {
    throw std::invalid_argument("CtmcBuilder: chain has no states");
  }
  const std::size_t n = states_.size();
  linalg::CsrBuilder qb(n, n);
  std::vector<double> exit(n, 0.0);
  for (const Arc& a : arcs_) {
    qb.add(a.from, a.to, a.rate);
    exit[a.from] += a.rate;
  }
  for (StateIndex i = 0; i < n; ++i) {
    if (exit[i] > 0.0) qb.add(i, i, -exit[i]);
  }
  Ctmc chain;
  chain.states_ = states_;
  chain.q_ = qb.build();
  // Duplicate arcs merged in CSR; count distinct off-diagonal entries.
  std::size_t count = 0;
  for (StateIndex i = 0; i < n; ++i) {
    const auto row = chain.q_.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] != i) ++count;
    }
  }
  chain.transition_count_ = count;
  return chain;
}

linalg::Vector Ctmc::reward_vector() const {
  linalg::Vector r(states_.size());
  for (StateIndex i = 0; i < states_.size(); ++i) r[i] = states_[i].reward;
  return r;
}

std::vector<StateIndex> Ctmc::up_states() const {
  std::vector<StateIndex> up;
  for (StateIndex i = 0; i < states_.size(); ++i) {
    if (states_[i].reward > 0.0) up.push_back(i);
  }
  return up;
}

std::vector<StateIndex> Ctmc::down_states() const {
  std::vector<StateIndex> down;
  for (StateIndex i = 0; i < states_.size(); ++i) {
    if (states_[i].reward <= 0.0) down.push_back(i);
  }
  return down;
}

std::optional<StateIndex> Ctmc::find_state(const std::string& name) const {
  for (StateIndex i = 0; i < states_.size(); ++i) {
    if (states_[i].name == name) return i;
  }
  return std::nullopt;
}

double Ctmc::exit_rate(StateIndex i) const {
  if (i >= states_.size()) {
    throw std::out_of_range("Ctmc::exit_rate: index out of range");
  }
  return -q_.at(i, i);
}

std::pair<linalg::CsrMatrix, double> Ctmc::uniformized(
    double rate_factor) const {
  if (!(rate_factor >= 1.0)) {
    throw std::invalid_argument("Ctmc::uniformized: rate_factor must be >= 1");
  }
  double q = q_.max_abs_diagonal() * rate_factor;
  if (q <= 0.0) q = 1.0;  // absorbing-only chain: P = I
  const std::size_t n = size();
  linalg::CsrBuilder pb(n, n);
  for (StateIndex i = 0; i < n; ++i) {
    const auto row = q_.row(i);
    double diag = 1.0;
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] == i) {
        diag += row.values[k] / q;
      } else {
        pb.add(i, row.cols[k], row.values[k] / q);
      }
    }
    pb.add(i, i, diag);
  }
  return {pb.build(), q};
}

void Ctmc::print(std::ostream& os) const {
  os << "states (" << size() << "):\n";
  for (StateIndex i = 0; i < size(); ++i) {
    os << "  [" << i << "] " << states_[i].name << "  reward="
       << states_[i].reward << '\n';
  }
  os << "transitions (" << transition_count_ << "):\n";
  for (StateIndex i = 0; i < size(); ++i) {
    const auto row = q_.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] == i) continue;
      os << "  " << states_[i].name << " -> " << states_[row.cols[k]].name
         << "  rate=" << row.values[k] << '\n';
    }
  }
}

std::ostream& operator<<(std::ostream& os, const Ctmc& chain) {
  chain.print(os);
  return os;
}

}  // namespace rascad::markov
