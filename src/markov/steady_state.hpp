// Steady-state solution of CTMCs: pi Q = 0, sum(pi) = 1.
//
// Four methods are provided; Direct (banded GTH elimination, exact and
// subtraction-free) is the default for generated availability chains, the
// iterative methods are the fallbacks of the resilience ladder and the
// subject of the solver-ablation bench (E10). The same GTH elimination
// also solves mean times to absorption (gth_absorption_times).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense.hpp"
#include "markov/ctmc.hpp"
#include "robust/cancel.hpp"

namespace rascad::markov {

enum class SteadyStateMethod {
  kDirect,    // banded GTH elimination after an RCM reordering
  kSor,       // Gauss-Seidel/SOR sweeps on pi Q = 0 with renormalization
  kPower,     // power iteration on the uniformized DTMC
  kBiCgStab,  // Krylov solve of the replaced-row system
};

struct SteadyStateOptions {
  SteadyStateMethod method = SteadyStateMethod::kDirect;
  double tolerance = 1e-13;
  std::size_t max_iterations = 500'000;
  double relaxation = 1.0;  // SOR omega
  /// Cooperative stop, forwarded into every solver loop (checked every
  /// cancel_check_interval iterations, or eliminated states for the direct
  /// method; see linalg::IterativeOptions). A stopped token raises
  /// SolveError(kCancelled / kDeadlineExceeded); an uncancelled run is
  /// bitwise identical to one without a token.
  robust::CancelToken cancel;
  std::size_t cancel_check_interval = 64;
};

struct SteadyStateResult {
  linalg::Vector pi;
  std::size_t iterations = 0;  // 0 for the direct method
  double residual = 0.0;       // infinity norm of pi Q
};

/// Computes the stationary distribution. The chain must be irreducible
/// (availability chains from the generator always are). Failures raise
/// resilience::SolveError (is-a std::runtime_error) with a cause code,
/// per method:
///
///   kDirect    kInvalidInput   absorbing state, or a state with no
///                              outflow left during elimination
///                              (reducible chain)
///              kBudgetExceeded banded workspace does not fit in memory
///   kSor       kInvalidInput   absorbing state (no exit rate)
///              kNonConverged   iteration budget exhausted
///   kPower     kNonConverged   iteration budget exhausted
///   kBiCgStab  kInvalidInput   absorbing state (zero diagonal)
///              kNonConverged   iteration budget exhausted or breakdown
///
/// (Before the taxonomy these were bare std::domain_error for the
/// structural cases and std::runtime_error for non-convergence; SolveError
/// keeps catch-compatibility with the latter.) Callers who want automatic
/// escalation instead of an exception should use
/// resilience::solve_steady_state_resilient.
SteadyStateResult solve_steady_state(const Ctmc& chain,
                                     const SteadyStateOptions& opts = {});

/// The one exact stationary solver (kDirect, Dtmc::stationary, the ladders'
/// direct rung): Grassmann-Taksar-Heyman elimination on the non-negative
/// off-diagonal `weights` (rates or probabilities; diagonal ignored). It
/// never subtracts, so every mass is accurate componentwise however many
/// decades the masses span. States go in reverse Cuthill-McKee order and
/// the weights in a band of half-width b: O(n b^2) time, O(n b) memory.
/// Polls opts.cancel every cancel_check_interval eliminated states; errors
/// as for kDirect above. `bandwidth`, if given, receives b.
linalg::Vector gth_stationary(const linalg::CsrMatrix& weights,
                              const SteadyStateOptions& opts = {},
                              std::size_t* bandwidth = nullptr);

/// The one exact absorbing solver (mttf_resilient's direct rung,
/// AbsorbingAnalysis, Dtmc::expected_steps_to_absorption and
/// SemiMarkovProcess::mean_time_to_absorption): the same banded GTH
/// elimination, with a second back-substitution. Over the transient states
/// it solves
///   tau_i = (c_i + sum_j w_ij tau_j) / (sum_j w_ij + e_i)
/// where `weights` holds the non-negative weights w between transient
/// states (diagonal ignored), `exits` each state's weight e into the
/// absorbing set and `costs` the cost c per unit time (rates) or per step
/// (probabilities). With rates and unit costs, tau is the mean time to
/// absorption. An eliminated state's exit
/// folds into the survivors' exits like any other weight, so every pivot
/// is a sum of non-negative terms and nothing is ever subtracted.
/// Ordering, cost, cancellation and kBudgetExceeded as for gth_stationary;
/// throws SolveError(kInvalidInput) when a transient state cannot reach
/// absorption.
linalg::Vector gth_absorption_times(const linalg::CsrMatrix& weights,
                                    const linalg::Vector& exits,
                                    const linalg::Vector& costs,
                                    const SteadyStateOptions& opts = {},
                                    std::size_t* bandwidth = nullptr);

/// Expected steady-state reward rate: sum_i pi_i * reward_i. For a 0/1
/// reward structure this is the steady-state availability.
double expected_reward(const Ctmc& chain, const linalg::Vector& pi);

/// Equivalent (steady-state) system failure rate: the rate of up->down
/// transitions conditioned on being up. See Trivedi, ch. 8.
double equivalent_failure_rate(const Ctmc& chain, const linalg::Vector& pi);

/// Equivalent (steady-state) system recovery rate: down->up flow
/// conditioned on being down.
double equivalent_recovery_rate(const Ctmc& chain, const linalg::Vector& pi);

}  // namespace rascad::markov
