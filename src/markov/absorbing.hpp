// Absorbing-chain (reliability) analysis.
//
// RAScad's reliability measures treat the system-failure states of an
// availability chain as absorbing: MTTF is the mean time to absorption,
// R(T) the probability of no absorption by T, and the hazard rate the
// conditional failure intensity over a time increment (paper, Section 4).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"
#include "markov/ctmc.hpp"
#include "markov/transient.hpp"

namespace rascad::markov {

/// Returns a copy of `chain` with all outgoing transitions removed from the
/// given states (making them absorbing). Throws std::invalid_argument if
/// every state would be absorbing.
Ctmc make_absorbing(const Ctmc& chain, const std::vector<StateIndex>& absorbing);

/// Convenience: make every reward-0 (down) state absorbing — the standard
/// availability-model -> reliability-model conversion.
Ctmc make_down_states_absorbing(const Ctmc& chain);

/// A chain's weights (rates or probabilities, diagonal ignored) split at
/// an absorbing set, in the form markov::gth_absorption_times takes.
struct TransientSplit {
  std::vector<StateIndex> states;         // transient index -> state
  std::vector<std::ptrdiff_t> position;   // state -> transient index, or -1
  linalg::CsrMatrix weights;              // between transient states
  linalg::Vector exits;                   // into the absorbing set
};

/// Splits `weights` at the states marked in `absorbing`.
TransientSplit split_transient(const linalg::CsrMatrix& weights,
                               const std::vector<bool>& absorbing);

/// Analysis of a chain that has at least one absorbing state reachable from
/// the transient class. Every query is one banded GTH solve
/// (gth_absorption_times) with its own cost vector; only the mean times to
/// absorption are kept.
class AbsorbingAnalysis {
 public:
  /// Identifies absorbing states as those with zero exit rate. Throws
  /// std::invalid_argument if there are none, and
  /// resilience::SolveError(kInvalidInput) if a transient state cannot
  /// reach one.
  explicit AbsorbingAnalysis(const Ctmc& chain);

  /// Mean time to absorption starting from `initial` (a distribution over
  /// all states; mass on absorbing states contributes zero time).
  double mean_time_to_absorption(const linalg::Vector& initial) const;

  /// Mean time to absorption from a single starting state.
  double mean_time_to_absorption(StateIndex start) const;

  /// Probability of being absorbed in `target` (an absorbing state) when
  /// starting from `start`. Throws std::invalid_argument if target is not
  /// absorbing.
  double absorption_probability(StateIndex start, StateIndex target) const;

  /// Expected total time spent in transient state `j` before absorption,
  /// starting from `start`.
  double expected_visit_time(StateIndex start, StateIndex j) const;

  const std::vector<StateIndex>& absorbing_states() const noexcept {
    return absorbing_;
  }
  const std::vector<StateIndex>& transient_states() const noexcept {
    return split_.states;
  }

 private:
  Ctmc chain_;  // owned copy: the analysis outlives the caller's chain
  std::vector<StateIndex> absorbing_;
  TransientSplit split_;
  // tau_[k] = expected time to absorption from split_.states[k].
  linalg::Vector tau_;
};

/// Reliability R(t): probability the chain (with absorbing failure states)
/// has not been absorbed by time t, starting from `initial`.
double reliability_at(const Ctmc& absorbing_chain, const linalg::Vector& initial,
                      double t, const TransientOptions& opts = {});

/// Hazard rate h(t) ~= -[ln R(t + dt) - ln R(t)] / dt.
double hazard_rate(const Ctmc& absorbing_chain, const linalg::Vector& initial,
                   double t, double dt, const TransientOptions& opts = {});

}  // namespace rascad::markov
