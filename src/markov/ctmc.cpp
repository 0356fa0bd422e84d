#include "markov/ctmc.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace rascad::markov {

StateIndex StateTable::add(std::string name, double reward) {
  if (reward < 0.0) {
    throw std::invalid_argument("CtmcBuilder: reward must be non-negative");
  }
  if (!names_.insert(name, states_.size(), [&](StateIndex i) -> auto& {
        return states_[i].name;
      })) {
    throw std::invalid_argument("CtmcBuilder: duplicate state name '" + name +
                                "'");
  }
  states_.push_back({std::move(name), reward});
  return states_.size() - 1;
}

std::optional<StateIndex> StateTable::find(std::string_view name) const {
  return names_.find(name, [&](StateIndex i) -> auto& {
    return states_[i].name;
  });
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

Ctmc CtmcBuilder::build() {
  if (states_.size() == 0) {
    throw std::invalid_argument("CtmcBuilder: chain has no states");
  }
  // Q in one pass over the arcs, straight into its row buckets: the arcs
  // of a row in insertion order, then its diagonal. from_rows sorts each
  // row and sums duplicate arcs in insertion order.
  const std::size_t n = states_.size();
  std::vector<double> exit(n, 0.0);
  std::vector<std::uint32_t> row_ptr(n + 1, 0);
  for (const Arc& a : arcs_) {
    exit[a.from] += a.rate;
    ++row_ptr[a.from + 1];
  }
  for (StateIndex i = 0; i < n; ++i) {
    row_ptr[i + 1] += row_ptr[i] + (exit[i] > 0.0 ? 1 : 0);
  }
  std::vector<std::uint32_t> next(row_ptr.begin(), row_ptr.end() - 1);
  std::vector<std::uint32_t> cols(row_ptr[n]);
  std::vector<double> vals(row_ptr[n]);
  for (const Arc& a : arcs_) {
    const std::uint32_t pos = next[a.from]++;
    cols[pos] = static_cast<std::uint32_t>(a.to);
    vals[pos] = a.rate;
  }
  for (StateIndex i = 0; i < n; ++i) {
    if (!(exit[i] > 0.0)) continue;
    cols[next[i]] = static_cast<std::uint32_t>(i);
    vals[next[i]] = -exit[i];
  }
  arcs_.clear();
  return Ctmc(std::make_shared<const StateTable>(std::exchange(states_, {})),
              linalg::CsrMatrix::from_rows(n, std::move(row_ptr),
                                           std::move(cols), std::move(vals)));
}

Ctmc::Ctmc(std::shared_ptr<const StateTable> states, linalg::CsrMatrix q)
    : states_(std::move(states)), q_(std::move(q)) {
  if (!states_ || q_.rows() != states_->size() ||
      q_.cols() != states_->size()) {
    throw std::invalid_argument(
        "Ctmc: generator size does not match the state table");
  }
}

std::size_t Ctmc::transition_count() const noexcept {
  // Duplicate arcs are merged in CSR; count distinct off-diagonal entries.
  std::size_t count = 0;
  for (StateIndex i = 0; i < size(); ++i) {
    const auto row = q_.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] != i) ++count;
    }
  }
  return count;
}

const StateTable& Ctmc::table() const noexcept {
  static const StateTable empty;
  return states_ ? *states_ : empty;
}

linalg::Vector Ctmc::reward_vector() const {
  const std::vector<StateInfo>& s = states();
  linalg::Vector r(s.size());
  for (StateIndex i = 0; i < s.size(); ++i) r[i] = s[i].reward;
  return r;
}

std::vector<StateIndex> Ctmc::up_states() const {
  const std::vector<StateInfo>& s = states();
  std::vector<StateIndex> up;
  for (StateIndex i = 0; i < s.size(); ++i) {
    if (s[i].reward > 0.0) up.push_back(i);
  }
  return up;
}

std::vector<StateIndex> Ctmc::down_states() const {
  const std::vector<StateInfo>& s = states();
  std::vector<StateIndex> down;
  for (StateIndex i = 0; i < s.size(); ++i) {
    if (s[i].reward <= 0.0) down.push_back(i);
  }
  return down;
}

std::optional<StateIndex> Ctmc::find_state(const std::string& name) const {
  return table().find(name);
}

double Ctmc::exit_rate(StateIndex i) const {
  if (i >= size()) {
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
  pb.reserve(q_.nnz() + n);
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
  const std::vector<StateInfo>& s = states();
  os << "states (" << size() << "):\n";
  for (StateIndex i = 0; i < size(); ++i) {
    os << "  [" << i << "] " << s[i].name << "  reward="
       << s[i].reward << '\n';
  }
  os << "transitions (" << transition_count() << "):\n";
  for (StateIndex i = 0; i < size(); ++i) {
    const auto row = q_.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] == i) continue;
      os << "  " << s[i].name << " -> " << s[row.cols[k]].name
         << "  rate=" << row.values[k] << '\n';
    }
  }
}

std::ostream& operator<<(std::ostream& os, const Ctmc& chain) {
  chain.print(os);
  return os;
}

}  // namespace rascad::markov
