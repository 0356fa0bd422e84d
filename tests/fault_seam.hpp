// Test-only fault injection for the checked solves, and sick-input chain
// generators.
//
// Faults go through the post-solve seam (markov::ScopedPostSolveHook): a
// hook runs on every checked solve's candidate after GTH and before the
// health check, so these prove that the health layer, not just the solver's
// own error paths, catches bad answers, and that deadlines and the stall
// watchdog fire. The generators produce genuinely sick inputs instead
// (reducible chains, masses spanning many decades).
#pragma once

#include <chrono>
#include <cstddef>
#include <limits>
#include <string>
#include <thread>

#include "markov/ctmc.hpp"
#include "markov/health.hpp"
#include "robust/cancel.hpp"
#include "robust/solve_error.hpp"

namespace rascad::testing {

/// Seeds a NaN into the middle entry of the answer.
inline markov::PostSolveHook nan_hook() {
  return [](linalg::Vector& v, const robust::CancelToken&) {
    if (!v.empty()) v[v.size() / 2] = std::numeric_limits<double>::quiet_NaN();
  };
}

/// Subtracts 0.5 from the middle entry: negative mass far beyond any clamp
/// tolerance.
inline markov::PostSolveHook negative_hook() {
  return [](linalg::Vector& v, const robust::CancelToken&) {
    if (!v.empty()) v[v.size() / 2] -= 0.5;
  };
}

/// Throws SolveError(kNonConverged), as a solver giving up would.
inline markov::PostSolveHook throw_hook() {
  return [](linalg::Vector&, const robust::CancelToken&) {
    throw robust::SolveError(robust::SolveCause::kNonConverged, "direct",
                             "injected convergence failure");
  };
}

/// A solve that blows its budget: burns wall-clock in 0.2 ms naps until the
/// solve's token stops (never longer than `cap_ms`, so a solve without a
/// deadline still ends), then throws kDeadlineExceeded.
inline markov::PostSolveHook timeout_hook(double cap_ms) {
  return [cap_ms](linalg::Vector&, const robust::CancelToken& token) {
    const auto start = std::chrono::steady_clock::now();
    const auto cap = std::chrono::duration<double, std::milli>(cap_ms);
    while (!token.stop_requested() &&
           std::chrono::steady_clock::now() - start < cap) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    throw robust::SolveError(robust::SolveCause::kDeadlineExceeded, "direct",
                             "injected timeout");
  };
}

/// A solve stuck where no checkpoint polls its token: sleeps `ms` ignoring
/// the token and leaves the answer intact, so the solve still succeeds and
/// only a deadline or the stall watchdog notices.
inline markov::PostSolveHook stall_hook(double ms) {
  return [ms](linalg::Vector&, const robust::CancelToken&) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  };
}

/// Copy of `chain` with every transition rate multiplied by `factor`
/// (> 0). Scaling is availability-neutral in exact arithmetic, so the
/// solved distribution must not move.
inline markov::Ctmc with_scaled_rates(const markov::Ctmc& chain,
                                      double factor) {
  if (!(factor > 0.0)) {
    throw robust::SolveError(robust::SolveCause::kInvalidInput,
                             "with_scaled_rates",
                             "scale factor must be positive");
  }
  markov::CtmcBuilder builder;
  for (const auto& s : chain.states()) builder.add_state(s.name, s.reward);
  const auto& q = chain.generator();
  for (markov::StateIndex i = 0; i < chain.size(); ++i) {
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] != i) {
        builder.add_transition(i, row.cols[k], row.values[k] * factor);
      }
    }
  }
  return builder.build();
}

/// Copy of `chain` with the (from, to) transition removed. Zeroing the only
/// exit of a state produces an absorbing state: reducible-chain input the
/// solvers must refuse. Throws SolveError(kInvalidInput) if the
/// transition does not exist.
inline markov::Ctmc with_transition_zeroed(const markov::Ctmc& chain,
                                           markov::StateIndex from,
                                           markov::StateIndex to) {
  if (chain.generator().at(from, to) == 0.0) {
    throw robust::SolveError(robust::SolveCause::kInvalidInput,
                             "with_transition_zeroed",
                             "transition " + std::to_string(from) + " -> " +
                                 std::to_string(to) + " does not exist");
  }
  markov::CtmcBuilder builder;
  for (const auto& s : chain.states()) builder.add_state(s.name, s.reward);
  const auto& q = chain.generator();
  for (markov::StateIndex i = 0; i < chain.size(); ++i) {
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] == i) continue;
      if (i == from && row.cols[k] == to) continue;
      builder.add_transition(i, row.cols[k], row.values[k]);
    }
  }
  return builder.build();
}

/// A stiff birth-death availability chain of 2 * `pairs` + 1 states whose
/// adjacent rates alternate between 1 and `spread` (e.g. 1e12): even links
/// push forward at rate `spread` against a rate-1 return, odd links the
/// reverse. Detailed balance makes the stationary masses alternate across
/// a factor of `spread`, which GTH resolves componentwise exactly.
inline markov::Ctmc ill_conditioned_chain(std::size_t pairs, double spread) {
  markov::CtmcBuilder builder;
  const std::size_t n = 2 * pairs + 1;
  for (std::size_t i = 0; i < n; ++i) {
    builder.add_state("s" + std::to_string(i), i % 2 == 0 ? 1.0 : 0.0);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    builder.add_transition(i, i + 1, i % 2 == 0 ? spread : 1.0);
    builder.add_transition(i + 1, i, i % 2 == 0 ? 1.0 : spread);
  }
  return builder.build();
}

}  // namespace rascad::testing
