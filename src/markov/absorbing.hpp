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
#include "markov/health.hpp"
#include "markov/transient.hpp"
#include "robust/cancel.hpp"

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

/// Times to absorption over `split` with `costs` per visit (per unit time
/// for rates, per step for probabilities), in one checked solve named
/// `name` (checked_solve in health.hpp): gth_absorption_times, then
/// check_absorption_times against (diag(out) - W) tau = costs with
/// out = W 1 + e. Throws robust::SolveError; `trace`, if given, receives
/// the episode.
linalg::Vector checked_absorption_times(const char* name,
                                        const TransientSplit& split,
                                        const linalg::Vector& costs,
                                        const robust::CancelToken& cancel,
                                        SolveTrace* trace);

/// Mean time to failure of an availability chain from `initial`, with its
/// down (reward-0) states absorbing: checked_absorption_times over the up
/// states with unit costs, that is (-Q_TT) tau = 1. Returns 0 when the chain
/// cannot fail or `initial` is down. Throws robust::SolveError
/// (kInvalidInput when an up state cannot reach a down one); `trace`, if
/// given, receives the episode.
double mttf(const Ctmc& chain, StateIndex initial,
            const robust::CancelToken& cancel = {},
            SolveTrace* trace = nullptr);

/// Reliability R(t): probability the chain (with absorbing failure states)
/// has not been absorbed by time t, starting from `initial`.
double reliability_at(const Ctmc& absorbing_chain, const linalg::Vector& initial,
                      double t, const TransientOptions& opts = {});

/// Hazard rate h(t) ~= -[ln R(t + dt) - ln R(t)] / dt.
double hazard_rate(const Ctmc& absorbing_chain, const linalg::Vector& initial,
                   double t, double dt, const TransientOptions& opts = {});

}  // namespace rascad::markov
