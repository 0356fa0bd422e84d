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
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "linalg/csr.hpp"
#include "markov/name_index.hpp"

namespace rascad::markov {

using StateIndex = std::size_t;

struct StateInfo {
  std::string name;
  double reward = 1.0;
};

/// A chain's states: names, rewards and the index from name to state.
/// A chain holds its table through a shared pointer to const, so chains of
/// one structure (every point of a sweep, an absorbing copy and its
/// source) share one table.
class StateTable {
 public:
  /// Adds a state; returns its index. Throws std::invalid_argument on a
  /// duplicate name or negative reward.
  StateIndex add(std::string name, double reward);

  std::size_t size() const noexcept { return states_.size(); }
  const std::vector<StateInfo>& states() const noexcept { return states_; }
  std::optional<StateIndex> find(std::string_view name) const;

 private:
  std::vector<StateInfo> states_;
  NameIndex names_;
};

class Ctmc;

/// Incremental chain construction: states first, then transitions.
class CtmcBuilder {
 public:
  /// Adds a state; returns its index. Throws std::invalid_argument on a
  /// duplicate name or negative reward.
  StateIndex add_state(std::string name, double reward) {
    return states_.add(std::move(name), reward);
  }

  /// Adds a transition with the given rate (> 0). Self-loops are rejected.
  /// Multiple arcs between the same pair of states accumulate.
  void add_transition(StateIndex from, StateIndex to, double rate);

  std::size_t state_count() const noexcept { return states_.size(); }

  /// Index of a previously added state by name.
  std::optional<StateIndex> find_state(const std::string& name) const {
    return states_.find(name);
  }

  /// Finalizes the chain, moving the states into it: the builder is empty
  /// afterwards. Throws std::invalid_argument if empty.
  Ctmc build();

 private:
  struct Arc {
    StateIndex from;
    StateIndex to;
    double rate;
  };
  StateTable states_;
  std::vector<Arc> arcs_;
};

/// Immutable CTMC: generator matrix Q (diagonal = -row-sum of rates),
/// state metadata, and reward vector.
class Ctmc {
 public:
  Ctmc() = default;

  /// The chain over `states` with generator `q` (one row and column per
  /// state; each diagonal the negated sum of its row's rates). Throws
  /// std::invalid_argument when `states` is null or the sizes disagree.
  Ctmc(std::shared_ptr<const StateTable> states, linalg::CsrMatrix q);

  std::size_t size() const noexcept { return q_.rows(); }

  const linalg::CsrMatrix& generator() const noexcept { return q_; }
  const std::vector<StateInfo>& states() const noexcept {
    return table().states();
  }
  /// The shared state table (null on a default-constructed chain).
  const std::shared_ptr<const StateTable>& state_table() const noexcept {
    return states_;
  }
  const std::string& state_name(StateIndex i) const {
    return states().at(i).name;
  }
  double reward(StateIndex i) const { return states().at(i).reward; }

  /// Reward rates as a vector aligned with state indices.
  linalg::Vector reward_vector() const;

  /// Indices of states with reward > 0 (the "up" states of an
  /// availability model).
  std::vector<StateIndex> up_states() const;
  std::vector<StateIndex> down_states() const;

  std::optional<StateIndex> find_state(const std::string& name) const;

  /// Total outgoing rate of state i (== -Q(i,i)).
  double exit_rate(StateIndex i) const;

  /// Number of (off-diagonal) transitions, counted in Q on each call.
  std::size_t transition_count() const noexcept;

  /// Uniformized DTMC P = I + Q/q with q >= max |Q(i,i)|; returns the pair
  /// (P, q). `rate_factor` > 1 pads q for strict substochasticity margins.
  std::pair<linalg::CsrMatrix, double> uniformized(double rate_factor = 1.02) const;

  /// Human-readable dump of states and transitions (used by the figure
  /// benches to "draw" generated chains as text).
  void print(std::ostream& os) const;

 private:
  const StateTable& table() const noexcept;

  std::shared_ptr<const StateTable> states_;
  linalg::CsrMatrix q_;
};

std::ostream& operator<<(std::ostream& os, const Ctmc& chain);

}  // namespace rascad::markov
