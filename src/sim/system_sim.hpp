// System-level Monte-Carlo availability estimation.
//
// Blocks fail and repair independently (the paper's modeling assumption),
// so each block's down intervals are simulated independently and the
// system's downtime is the measure of their union — exact for the serial
// diagram hierarchy MG generates. This is the synthetic stand-in for the
// paper's 15-month field measurements on two production E10000 servers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/block_sim.hpp"
#include "spec/ast.hpp"

namespace rascad::sim {

struct SystemSimResult {
  double horizon = 0.0;
  double down_time = 0.0;
  std::size_t outages = 0;  // merged system-level down windows
  std::size_t permanent_faults = 0;
  std::size_t transient_faults = 0;
  std::size_t service_errors = 0;
  std::uint64_t events = 0;  // scheduled block events consumed

  double availability() const {
    return horizon > 0.0 ? 1.0 - down_time / horizon : 1.0;
  }
  double downtime_minutes() const { return down_time * 60.0; }
};

/// Depth-first collection of every failing block reachable from the root
/// diagram, in the deterministic order the event engine seeds its
/// per-block RNG streams (stream = position + 1). Throws
/// std::invalid_argument on dangling subdiagram references.
std::vector<const spec::BlockSpec*> collect_failing_blocks(
    const spec::ModelSpec& model);

/// Simulates every failing block reachable from the root diagram over
/// [0, horizon] hours on the event engine (sim/event_engine.hpp) and
/// returns the union of their down windows. Throws std::invalid_argument
/// on validation failures (same checks as the analytic path) and on a
/// non-positive horizon.
SystemSimResult simulate_system(const spec::ModelSpec& model, double horizon,
                                std::uint64_t seed,
                                const BlockSimOptions& opts = {});

/// Like simulate_system, but with a shared common-cause shock process: a
/// Poisson stream of environmental events (rate per hour) that hits every
/// block at the same instants; each block loses a component with
/// probability `p_component_fault` per shock. This deliberately violates
/// the paper's independence assumption, to measure when that assumption
/// breaks down (experiment E14).
SystemSimResult simulate_system_common_cause(
    const spec::ModelSpec& model, double horizon, std::uint64_t seed,
    double shock_rate_per_hour, double p_component_fault,
    const BlockSimOptions& base = {});

}  // namespace rascad::sim
