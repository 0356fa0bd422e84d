// Discrete-time Markov chains — the embedded-chain substrate for the
// semi-Markov solver and a standalone GMB model type.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "linalg/csr.hpp"
#include "markov/health.hpp"
#include "markov/name_index.hpp"
#include "robust/cancel.hpp"

namespace rascad::markov {

class Dtmc;

/// Builder for a row-stochastic transition matrix with named states.
class DtmcBuilder {
 public:
  /// Adds a state; returns its index. Duplicate names are rejected.
  std::size_t add_state(std::string name);

  /// Adds transition probability mass (accumulates across calls).
  void add_transition(std::size_t from, std::size_t to, double probability);

  std::size_t state_count() const noexcept { return names_.size(); }

  /// Validates that every row sums to 1 within `row_sum_tolerance` and
  /// builds the chain. Throws std::invalid_argument otherwise.
  Dtmc build(double row_sum_tolerance = 1e-9) const;

 private:
  struct Arc {
    std::size_t from;
    std::size_t to;
    double p;
  };
  std::vector<std::string> names_;
  NameIndex index_;
  std::vector<Arc> arcs_;
};

class Dtmc {
 public:
  std::size_t size() const noexcept { return names_.size(); }
  const linalg::CsrMatrix& transition_matrix() const noexcept { return p_; }
  const std::string& state_name(std::size_t i) const { return names_.at(i); }
  std::optional<std::size_t> find_state(const std::string& name) const;

  /// Stationary distribution pi = pi P in one checked solve
  /// (checked_solve in health.hpp): the exact banded GTH elimination
  /// (gth_stationary in steady_state.hpp; self-loops are ignored, as
  /// pi P = pi iff pi (P - I) = 0), checked by the distribution scan and
  /// the fixed-point residual ||pi P - pi||_inf <= kResidualBound. Throws
  /// robust::SolveError (kInvalidInput on a reducible chain); `trace`, if
  /// given, receives the episode.
  linalg::Vector stationary(const robust::CancelToken& cancel = {},
                            SolveTrace* trace = nullptr) const;

  /// n-step distribution from `start`.
  linalg::Vector evolve(const linalg::Vector& start, std::size_t steps) const;

  /// True if state i is absorbing (all its probability mass self-loops).
  bool is_absorbing(std::size_t i) const;

  /// Expected number of steps to reach any absorbing state from `start`,
  /// in one checked solve (checked_absorption_times, one step per visit).
  /// Throws std::invalid_argument if the chain has no absorbing states and
  /// robust::SolveError if the solve or its check fails.
  double expected_steps_to_absorption(std::size_t start) const;

 private:
  friend class DtmcBuilder;
  std::vector<std::string> names_;
  NameIndex index_;
  linalg::CsrMatrix p_;
};

}  // namespace rascad::markov
