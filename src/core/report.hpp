// Documentation generation (paper Section 1: "file sharing across networks
// and documentation generation"): renders a solved system model as a
// human-readable Markdown report.
#pragma once

#include <iosfwd>
#include <string>

#include "mg/system.hpp"

namespace rascad::core {

struct ReportOptions {
  bool include_globals = true;
  bool include_block_table = true;
  bool include_chain_dumps = false;  // full state/transition listings
  bool include_transient = true;     // interval availability / reliability
  /// Per-block solver resilience section: each block's solve episode, its
  /// residual check and its outcome.
  bool include_solver_trace = true;
  /// Horizon for the interval/reliability section; 0 uses the model's
  /// mission time.
  double horizon_h = 0.0;
};

void write_report(std::ostream& os, const mg::SystemModel& system,
                  const ReportOptions& opts);
inline void write_report(std::ostream& os, const mg::SystemModel& system) {
  write_report(os, system, ReportOptions{});
}

std::string report_markdown(const mg::SystemModel& system,
                            const ReportOptions& opts = ReportOptions{});

}  // namespace rascad::core
