#include "resilience/fault_injection.hpp"

#include <chrono>
#include <limits>
#include <string>
#include <thread>

namespace rascad::resilience {

void corrupt_result(linalg::Vector& pi, FaultKind kind) {
  if (pi.empty()) return;
  switch (kind) {
    case FaultKind::kNanResult:
      pi[pi.size() / 2] = std::numeric_limits<double>::quiet_NaN();
      break;
    case FaultKind::kNegativeResult:
      pi[pi.size() / 2] -= 0.5;  // far beyond any clamp tolerance
      break;
    case FaultKind::kNone:
    case FaultKind::kThrowNonConverged:
    case FaultKind::kTimeout:
    case FaultKind::kStall:
      break;
  }
}

namespace {

/// kTimeout: burn wall-clock until the episode's token stops, so the
/// injected slowness is proportional to the configured budget. Polling in
/// 0.2 ms naps keeps cancellation latency small while the cap bounds
/// plans that carry no deadline at all.
void burn_until_stopped(const robust::CancelToken& token, double cap_ms) {
  const auto start = std::chrono::steady_clock::now();
  const auto cap = std::chrono::duration<double, std::milli>(cap_ms);
  while (!token.stop_requested() &&
         std::chrono::steady_clock::now() - start < cap) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace

void apply_fault(const FaultPlan& plan, linalg::Vector& pi,
                 const robust::CancelToken& token) {
  switch (plan.take_fault()) {
    case FaultKind::kNone:
      return;
    case FaultKind::kThrowNonConverged:
      throw SolveError(SolveCause::kNonConverged, "direct",
                       "injected convergence failure");
    case FaultKind::kNanResult:
      corrupt_result(pi, FaultKind::kNanResult);
      return;
    case FaultKind::kNegativeResult:
      corrupt_result(pi, FaultKind::kNegativeResult);
      return;
    case FaultKind::kTimeout:
      burn_until_stopped(token, plan.timeout_cap_ms);
      throw SolveError(SolveCause::kDeadlineExceeded, "direct",
                       "injected timeout");
    case FaultKind::kStall:
      // Deliberately ignores the token: models a solve stuck inside a
      // kernel with no checkpoint. The result stays intact, so once the
      // stall ends the solve still succeeds; only the watchdog notices.
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(plan.stall_ms));
      return;
  }
}

markov::Ctmc with_scaled_rates(const markov::Ctmc& chain, double factor) {
  if (!(factor > 0.0)) {
    throw SolveError(SolveCause::kInvalidInput, "with_scaled_rates",
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

markov::Ctmc with_transition_zeroed(const markov::Ctmc& chain,
                                    markov::StateIndex from,
                                    markov::StateIndex to) {
  if (chain.generator().at(from, to) == 0.0) {
    throw SolveError(SolveCause::kInvalidInput, "with_transition_zeroed",
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

markov::Ctmc ill_conditioned_chain(std::size_t pairs, double spread) {
  if (pairs == 0 || !(spread > 0.0)) {
    throw SolveError(SolveCause::kInvalidInput, "ill_conditioned_chain",
                     "need pairs >= 1 and spread > 0");
  }
  markov::CtmcBuilder builder;
  const std::size_t n = 2 * pairs + 1;
  for (std::size_t i = 0; i < n; ++i) {
    builder.add_state("s" + std::to_string(i), i % 2 == 0 ? 1.0 : 0.0);
  }
  // Birth-death chain with alternating stiffness direction: even links push
  // forward at rate `spread` against a rate-1 return, odd links the
  // reverse. Detailed balance makes the stationary masses oscillate across
  // a dynamic range of `spread`, and the uniformization constant is
  // ~spread while the slowest transitions have rate 1.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (i % 2 == 0) {
      builder.add_transition(i, i + 1, spread);
      builder.add_transition(i + 1, i, 1.0);
    } else {
      builder.add_transition(i, i + 1, 1.0);
      builder.add_transition(i + 1, i, spread);
    }
  }
  return builder.build();
}

}  // namespace rascad::resilience
