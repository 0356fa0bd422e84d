// Semi-Markov processes (SMPs) — the GMB module's third model type.
//
// An SMP is specified by its embedded transition probabilities and per-state
// sojourn-time distributions (general, not just exponential). Steady-state
// probabilities follow the classic ratio formula
//     pi_j = nu_j * h_j / sum_i nu_i * h_i
// where nu is the stationary distribution of the embedded DTMC and h the
// mean sojourn times. This is exactly the level of semi-Markov support a
// RAScad GMB user gets for steady-state availability.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "dist/distribution.hpp"
#include "linalg/dense.hpp"
#include "markov/dtmc.hpp"
#include "markov/health.hpp"
#include "markov/name_index.hpp"
#include "robust/cancel.hpp"

namespace rascad::semimarkov {

class SemiMarkovProcess;

class SmpBuilder {
 public:
  /// Adds a state with a reward rate and its sojourn-time distribution.
  /// Returns the state index. The sojourn may be null if the state is later
  /// configured through set_exponential().
  std::size_t add_state(std::string name, double reward,
                        dist::DistributionPtr sojourn = nullptr);

  /// Embedded transition probability from -> to; each row must sum to 1 at
  /// build time.
  void add_transition(std::size_t from, std::size_t to, double probability);

  /// Sets (or replaces) the sojourn distribution of an existing state.
  void set_sojourn(std::size_t state, dist::DistributionPtr sojourn);

  /// Convenience for exponential races: sets the sojourn of `from` to
  /// Exp(sum of rates) and the embedded probabilities to rate/total,
  /// matching CTMC semantics. Replaces any previously set sojourn; must be
  /// the only source of arcs for that state.
  void set_exponential(std::size_t from,
                       const std::vector<std::pair<std::size_t, double>>& rate_arcs);

  /// Validates (every state has a sojourn distribution, rows sum to 1) and
  /// builds. Throws std::invalid_argument on violations.
  SemiMarkovProcess build() const;

  /// Builds a process that may contain absorbing states: a state with no
  /// outgoing probability mass is absorbing (its sojourn may be null).
  /// Such processes support first-passage analysis but not steady_state().
  SemiMarkovProcess build_with_absorbing() const;

 private:
  struct State {
    std::string name;
    double reward;
    dist::DistributionPtr sojourn;
  };
  struct Arc {
    std::size_t from;
    std::size_t to;
    double p;
  };
  std::vector<State> states_;
  markov::NameIndex index_;
  std::vector<Arc> arcs_;
};

class SemiMarkovProcess {
 public:
  std::size_t size() const noexcept { return states_.size(); }
  const std::string& state_name(std::size_t i) const {
    return states_.at(i).name;
  }
  double reward(std::size_t i) const { return states_.at(i).reward; }
  double mean_sojourn(std::size_t i) const {
    return states_.at(i).sojourn->mean();
  }
  const dist::Distribution& sojourn(std::size_t i) const {
    return *states_.at(i).sojourn;
  }
  const markov::Dtmc& embedded() const noexcept { return embedded_; }

  std::optional<std::size_t> find_state(const std::string& name) const;

  /// True if state i has no outgoing probability mass.
  bool is_absorbing(std::size_t i) const;

  /// Steady-state (long-run fraction of time) probabilities: the embedded
  /// chain's checked Dtmc::stationary (whose episode lands in `trace`),
  /// then the ratio formula, whose result passes check_distribution.
  /// Throws robust::SolveError (kInvalidInput if the process has absorbing
  /// states).
  linalg::Vector steady_state(const robust::CancelToken& cancel = {},
                              markov::SolveTrace* trace = nullptr) const;

  /// Expected long-run reward rate (steady-state availability for 0/1
  /// rewards).
  double steady_state_reward() const;

  /// Mean time to reach any absorbing state from `start` (Markov-renewal
  /// first passage: t_i = h_i + sum_j P_ij t_j over transient states), in
  /// one checked solve (markov::checked_absorption_times with the mean
  /// sojourns h as costs). Throws std::invalid_argument if the process has
  /// no absorbing state and robust::SolveError if the solve or its check
  /// fails.
  double mean_time_to_absorption(std::size_t start) const;

 private:
  friend class SmpBuilder;
  struct State {
    std::string name;
    double reward;
    dist::DistributionPtr sojourn;
  };
  std::vector<State> states_;
  markov::Dtmc embedded_;
  std::vector<bool> absorbing_;  // empty == no absorbing states
};

}  // namespace rascad::semimarkov
