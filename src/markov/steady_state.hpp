// Steady-state solution of CTMCs: pi Q = 0, sum(pi) = 1.
//
// One method: banded GTH elimination, exact and subtraction-free, run as a
// checked solve (health.hpp). The contract is irreducibility (availability
// chains from the generator always are irreducible): a chain that is not
// is refused by policy. Only several closed classes make the stationary
// vector ambiguous; a unichain or a chain with one absorbing state every
// state reaches has a unique one, but lies outside the contract. The same
// GTH elimination also solves mean times to absorption
// (gth_absorption_times).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/dense.hpp"
#include "markov/ctmc.hpp"
#include "markov/health.hpp"
#include "robust/cancel.hpp"

namespace rascad::markov {

/// States a loop handles between two polls of its stop token: the GTH
/// ordering and elimination, and the state pass of mg::generate. Each
/// loop also polls at its first state.
inline constexpr std::size_t kCancelCheckInterval = 64;

struct SteadyStateResult {
  linalg::Vector pi;
  double residual = 0.0;  // infinity norm of pi Q, from the health check
};

/// The stationary distribution: gth_stationary in one checked solve
/// (checked_solve in health.hpp), whose record lands in `trace` if given.
/// `residual` is the health check's own ||pi Q||_inf. Failures raise
/// robust::SolveError (is-a std::runtime_error) with a cause:
///
///   kInvalidInput    reducible chain: an absorbing state, two closed
///                    classes, or a state no other state can reach
///   kBudgetExceeded  more than kMaxStates states, or the banded
///                    workspace does not fit in memory
///   kNanOrInf / kNonConverged   the answer failed the health check
///   kCancelled / kDeadlineExceeded   `cancel` stopped
SteadyStateResult solve_steady_state(const Ctmc& chain,
                                     const robust::CancelToken& cancel = {},
                                     SolveTrace* trace = nullptr);

/// The one exact stationary solver (under solve_steady_state and
/// Dtmc::stationary): Grassmann-Taksar-Heyman elimination on the
/// non-negative off-diagonal `weights` (rates or probabilities; diagonal ignored). It
/// never subtracts, so every mass is accurate componentwise however many
/// decades the masses span. States go in reverse Cuthill-McKee order and
/// the weights in a band of half-width b: O(n b^2) time, O(n b) memory.
/// The order, the band layout and the fill envelope depend on the sparsity
/// pattern alone; a thread remembers the plans of the last 8 patterns it
/// planned (keyed by the exact pattern), and a solve on a remembered
/// pattern is bitwise identical to one on a new thread. Polls `cancel`
/// every 64 states the RCM ordering visits or the elimination removes; a
/// stopped token raises
/// SolveError(kCancelled / kDeadlineExceeded), an uncancelled run is
/// bitwise identical to one without a token. Other errors as for
/// solve_steady_state above. A chain is irreducible exactly when the
/// elimination never runs out of outflow and every back-substituted mass is
/// positive, so the reducibility check costs nothing extra. `bandwidth`, if
/// given, receives b, the pattern's (an entry whose value is 0 counts).
linalg::Vector gth_stationary(const linalg::CsrMatrix& weights,
                              const robust::CancelToken& cancel = {},
                              std::size_t* bandwidth = nullptr);

/// The one exact absorbing solver (under mttf,
/// Dtmc::expected_steps_to_absorption and
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
                                    const robust::CancelToken& cancel = {},
                                    std::size_t* bandwidth = nullptr);

/// The banded GTH elimination of an absorbing system, kept for repeated
/// solves against row right-hand sides. With the non-negative weights W
/// (diagonal ignored) and exits e of gth_absorption_times it factors
/// L = diag(out) - W, out_i = sum_j W_ij + e_i, once: the same RCM order,
/// band and elimination loop, O(n b^2). solve_row then gives x L = b in
/// O(n b): b folds along each eliminated row, w(m, j) / out(m), and the
/// stationary back-substitution runs with b(m) / out(m) added. The
/// transient engine factors (1/gamma) I - Q this way: the generator's rates
/// with an exit of 1/gamma out of every state. Every exit must be positive.
/// Cancellation and kBudgetExceeded as for gth_stationary.
class GthFactor {
 public:
  GthFactor(const linalg::CsrMatrix& weights, const linalg::Vector& exits,
            const robust::CancelToken& cancel = {});

  /// x <- x L^{-1}: replaces the row vector b (state order) by the x with
  /// x L = b.
  void solve_row(linalg::Vector& x) const;

 private:
  std::vector<std::uint32_t> order_;  // order_[k]: the state at position k
  std::size_t b_ = 0;
  std::vector<double> w_;    // eliminated band, w(i, j) at w_[2b i + b + j]
  std::vector<double> out_;  // out(m) by position
};

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
