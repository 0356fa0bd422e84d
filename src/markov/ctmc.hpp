// Continuous-time Markov chains with reward rates.
//
// RAScad's Model Generator emits chains directly in "internal matrix
// representation" (paper, Section 4); CtmcBuilder is that representation's
// assembly API. States carry a reward rate (1 = up, 0 = down for
// availability models; arbitrary non-negative rates are supported for
// general Markov reward models).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "linalg/csr.hpp"
#include "markov/name_index.hpp"

namespace rascad::markov {

using StateIndex = std::size_t;

struct StateInfo {
  std::string name;
  double reward = 1.0;
};

class Ctmc;

/// Incremental chain construction: states first, then transitions.
class CtmcBuilder {
 public:
  /// Adds a state; returns its index. Throws std::invalid_argument on a
  /// duplicate name or negative reward.
  StateIndex add_state(std::string name, double reward);

  /// Adds a transition with the given rate (> 0). Self-loops are rejected.
  /// Multiple arcs between the same pair of states accumulate.
  void add_transition(StateIndex from, StateIndex to, double rate);

  std::size_t state_count() const noexcept { return states_.size(); }

  /// Index of a previously added state by name.
  std::optional<StateIndex> find_state(const std::string& name) const;

  /// Finalizes the chain. Throws std::invalid_argument if empty.
  Ctmc build() const;

 private:
  struct Arc {
    StateIndex from;
    StateIndex to;
    double rate;
  };
  std::vector<StateInfo> states_;
  NameIndex names_;
  std::vector<Arc> arcs_;
};

/// Immutable CTMC: generator matrix Q (diagonal = -row-sum of rates),
/// state metadata, and reward vector.
class Ctmc {
 public:
  std::size_t size() const noexcept { return states_.size(); }

  const linalg::CsrMatrix& generator() const noexcept { return q_; }
  const std::vector<StateInfo>& states() const noexcept { return states_; }
  const std::string& state_name(StateIndex i) const { return states_.at(i).name; }
  double reward(StateIndex i) const { return states_.at(i).reward; }

  /// Reward rates as a vector aligned with state indices.
  linalg::Vector reward_vector() const;

  /// Indices of states with reward > 0 (the "up" states of an
  /// availability model).
  std::vector<StateIndex> up_states() const;
  std::vector<StateIndex> down_states() const;

  std::optional<StateIndex> find_state(const std::string& name) const;

  /// Total outgoing rate of state i (== -Q(i,i)).
  double exit_rate(StateIndex i) const;

  /// Number of (off-diagonal) transitions.
  std::size_t transition_count() const noexcept { return transition_count_; }

  /// Uniformized DTMC P = I + Q/q with q >= max |Q(i,i)|; returns the pair
  /// (P, q). `rate_factor` > 1 pads q for strict substochasticity margins.
  std::pair<linalg::CsrMatrix, double> uniformized(double rate_factor = 1.02) const;

  /// Human-readable dump of states and transitions (used by the figure
  /// benches to "draw" generated chains as text).
  void print(std::ostream& os) const;

 private:
  friend class CtmcBuilder;
  std::vector<StateInfo> states_;
  NameIndex names_;
  linalg::CsrMatrix q_;
  std::size_t transition_count_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Ctmc& chain);

}  // namespace rascad::markov
