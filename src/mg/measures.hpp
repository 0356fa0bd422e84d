// Block-level RAS measures computed from a generated chain — the measure
// list of the paper's Section 4 (steady-state and interval availability,
// failure and recovery rates, MTTF, reliability at the mission time,
// hazard rate over a time increment).
#pragma once

#include "markov/health.hpp"
#include "mg/generator.hpp"
#include "spec/ast.hpp"

namespace rascad::mg {

/// Minutes of downtime per year implied by an availability.
double yearly_downtime_minutes(double availability);

struct BlockMeasures {
  double availability = 1.0;
  double yearly_downtime_min = 0.0;
  double eq_failure_rate = 0.0;   // per hour, steady state
  double eq_recovery_rate = 0.0;  // per hour, steady state
  /// Expected service interruptions per year: EFR * A * 8760.
  double outages_per_year = 0.0;

  // Interval measures over (0, mission_time).
  double interval_availability = 1.0;
  double interval_eq_failure_rate = 0.0;   // crossings / expected up time
  double interval_eq_recovery_rate = 0.0;  // crossings / expected down time

  // Reliability-model measures (down states absorbing).
  double mttf_h = 0.0;                 // 0 when the block cannot fail
  double reliability_at_mission = 1.0;
  double interval_failure_rate = 0.0;  // -ln R(T) / T
  double hazard_rate_at_mission = 0.0;

  /// The checked steady-state solve episode behind the numbers.
  markov::SolveTrace solve_trace;
};

/// Solves the chain in one checked solve and assembles the measure set.
/// Throws robust::SolveError when the solve fails (reducible chain or
/// exhausted budget).
BlockMeasures compute_measures(const GeneratedModel& model,
                               const spec::GlobalParams& globals);

}  // namespace rascad::mg
