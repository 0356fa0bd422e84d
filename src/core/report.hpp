// Documentation generation (paper Section 1: "file sharing across networks
// and documentation generation"): renders a solved system model as a
// human-readable Markdown report.
#pragma once

#include <iosfwd>
#include <string>

#include "mg/system.hpp"

namespace rascad::core {

/// The report always carries the system measures (interval availability
/// and reliability at the model's mission time), the global parameters,
/// the block table, the per-block solver resilience section and the
/// diagram structure.
struct ReportOptions {
  bool include_chain_dumps = false;  // full state/transition listings
};

void write_report(std::ostream& os, const mg::SystemModel& system,
                  const ReportOptions& opts);
inline void write_report(std::ostream& os, const mg::SystemModel& system) {
  write_report(os, system, ReportOptions{});
}

std::string report_markdown(const mg::SystemModel& system,
                            const ReportOptions& opts = ReportOptions{});

}  // namespace rascad::core
