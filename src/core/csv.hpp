// CSV serialization of analysis results — the interchange half of the
// tool's "graphical output" (plots are drawn from these series).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/importance.hpp"
#include "core/sweep.hpp"
#include "linalg/dense.hpp"
#include "mg/system.hpp"

namespace rascad::core {

/// Sweep series: value,availability,yearly_downtime_min,eq_failure_rate,
/// solve_source,fresh_blocks,cached_blocks,reused_blocks,solve_iterations,
/// status,status_detail. The last two columns carry graceful-degradation
/// provenance: "ok" rows are complete measurements, anything else explains
/// why the point is missing (its numeric fields are NaN).
void write_sweep_csv(std::ostream& os, const std::vector<SweepPoint>& points);
std::string sweep_csv(const std::vector<SweepPoint>& points);

/// Parses write_sweep_csv output back (header validated, quoted fields
/// unescaped; embedded newlines inside quotes are not supported). Throws
/// std::invalid_argument on malformed input. Together with write_sweep_csv
/// this round-trips every field of SweepPoint, including the per-point
/// degradation status; the constant solve_iterations column is skipped.
std::vector<SweepPoint> read_sweep_csv(std::istream& is);
std::vector<SweepPoint> read_sweep_csv(const std::string& csv);

/// Sampled time curve: t,value — `horizon` spread uniformly over the rows.
void write_curve_csv(std::ostream& os, const linalg::Vector& curve,
                     double horizon);
std::string curve_csv(const linalg::Vector& curve, double horizon);

/// Per-block summary of a solved system:
/// diagram,block,quantity,min_quantity,model_type,states,availability,
/// yearly_downtime_min,solve_source,solve_iterations.
void write_blocks_csv(std::ostream& os, const mg::SystemModel& system);
std::string blocks_csv(const mg::SystemModel& system);

/// Importance table:
/// diagram,block,availability,birnbaum,criticality,raw,rrw,solve_source,
/// status,status_detail (degradation provenance, "ok" for complete rows).
void write_importance_csv(std::ostream& os,
                          const std::vector<BlockImportance>& imps);
std::string importance_csv(const std::vector<BlockImportance>& imps);

/// Parses write_importance_csv output back; same contract as
/// read_sweep_csv (yearly_downtime_min is not serialized and comes back
/// default-initialized).
std::vector<BlockImportance> read_importance_csv(std::istream& is);
std::vector<BlockImportance> read_importance_csv(const std::string& csv);

}  // namespace rascad::core
