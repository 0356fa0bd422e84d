#include "core/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace rascad::core {

namespace {

void heading(std::ostream& os, const std::string& text) {
  os << "\n## " << text << "\n\n";
}

std::string fmt_availability(double a) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(9) << a;
  return os.str();
}

std::string fmt(double x, int precision = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << x;
  return os.str();
}

}  // namespace

void write_report(std::ostream& os, const mg::SystemModel& system,
                  const ReportOptions& opts) {
  const spec::ModelSpec& model = system.spec();
  os << "# RAS report: "
     << (model.title.empty() ? model.root().name : model.title) << "\n";

  heading(os, "System measures");
  os << "| measure | value |\n|---|---|\n";
  os << "| steady-state availability | " << fmt_availability(system.availability())
     << " |\n";
  os << "| yearly downtime | " << fmt(system.yearly_downtime_min())
     << " min |\n";
  os << "| equivalent failure rate | "
     << fmt(system.eq_failure_rate() * 1e6, 4) << " per 1e6 h |\n";
  os << "| system MTBF | " << fmt(system.mtbf_h(), 1) << " h |\n";
  os << "| expected outages per year | "
     << fmt(system.eq_failure_rate() * system.availability() * 8760.0, 3)
     << " |\n";
  const double horizon = model.globals.mission_time_h;
  os << "| interval availability (0, " << fmt(horizon, 0) << " h) | "
     << fmt_availability(system.interval_availability(horizon)) << " |\n";
  os << "| reliability at " << fmt(horizon, 0) << " h | "
     << fmt_availability(system.reliability(horizon)) << " |\n";
  os << "| generated chain states | " << system.total_states() << " |\n";
  os << "| generated chain transitions | " << system.total_transitions()
     << " |\n";

  heading(os, "Global parameters");
  os << "| parameter | value |\n|---|---|\n";
  os << "| reboot time | " << fmt(model.globals.reboot_time_h * 60.0, 1)
     << " min |\n";
  os << "| MTTM (service restriction) | " << fmt(model.globals.mttm_h, 1)
     << " h |\n";
  os << "| MTTRFID | " << fmt(model.globals.mttrfid_h, 1) << " h |\n";
  os << "| mission time | " << fmt(model.globals.mission_time_h, 0)
     << " h |\n";

  heading(os, "Generated block models");
  os << "| diagram | block | N | K | model type | states | availability | "
        "yearly downtime (min) |\n|---|---|---|---|---|---|---|---|\n";
  for (const auto& b : system.blocks()) {
    os << "| " << b.diagram << " | " << b.block.name << " | "
       << b.block.quantity << " | " << b.block.min_quantity << " | "
       << mg::to_string(b.type) << " | " << b.chain->size() << " | "
       << fmt_availability(b.availability) << " | "
       << fmt(b.yearly_downtime_min) << " |\n";
  }

  heading(os, "Solver resilience");
  os << "| diagram | block | residual check | episode |\n|---|---|---|---|\n";
  for (const auto& b : system.blocks()) {
    const markov::SolveTrace& t = b.solve_trace;
    std::ostringstream residual;
    if (t.ran) {
      residual << std::scientific << std::setprecision(2)
               << t.residual_check;
    }
    os << "| " << b.diagram << " | " << b.block.name << " | "
       << residual.str() << " | " << t.summary() << " |\n";
  }

  if (opts.include_chain_dumps) {
    heading(os, "Chain listings");
    for (const auto& b : system.blocks()) {
      os << "\n### " << b.diagram << " / " << b.block.name << " ("
         << mg::to_string(b.type) << ")\n\n```\n";
      b.chain->print(os);
      os << "```\n";
    }
  }

  heading(os, "Diagram structure");
  os << "```\n";
  system.tree()->print(os);
  os << "```\n";
}

std::string report_markdown(const mg::SystemModel& system,
                            const ReportOptions& opts) {
  std::ostringstream os;
  write_report(os, system, opts);
  return os.str();
}

}  // namespace rascad::core
