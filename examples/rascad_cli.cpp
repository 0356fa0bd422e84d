// rascad_cli — command-line front end: load a `.rsc` model, validate it,
// solve it, and emit the measures or a full Markdown report.
//
//   rascad_cli solve <model.rsc> [parts.csv]   measures only
//   rascad_cli report <model.rsc> [parts.csv]  full Markdown report
//   rascad_cli check <model.rsc>               validate and list issues
//   rascad_cli dot <model.rsc>                 Graphviz of generated chains
//   rascad_cli importance <model.rsc>          block importance ranking
//   rascad_cli explain <model.rsc>             generator decisions per block
//   rascad_cli compare <a.rsc> <b.rsc>         side-by-side downtime diff
//   rascad_cli simulate <model.rsc> [hours] [reps]  Monte-Carlo estimate
//   rascad_cli library                         list built-in models
//   rascad_cli library <name>                  dump a built-in model as .rsc
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>

#include "core/compare.hpp"
#include "core/export_dot.hpp"
#include "core/importance.hpp"
#include "mg/explain.hpp"
#include "core/library.hpp"
#include "core/partsdb.hpp"
#include "core/project.hpp"
#include "core/report.hpp"
#include "obs/jsonl.hpp"
#include "sim/streaming.hpp"
#include "spec/parser.hpp"
#include "spec/validate.hpp"
#include "spec/writer.hpp"

namespace {

int usage() {
  std::cerr << "usage: rascad_cli solve|report <model.rsc> [parts.csv]\n"
               "       rascad_cli check|dot|importance|explain <model.rsc>\n"
               "       rascad_cli compare <a.rsc> <b.rsc>\n"
               "       rascad_cli simulate <model.rsc> [hours] [reps]\n"
               "       rascad_cli library [name]\n";
  return 2;
}

/// Parses all of `text` as a number of type T; false on any leftover
/// character, sign the type cannot hold, or out-of-range value.
template <typename T>
bool parse_whole(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

/// Loads the model, optionally enriching it from a parts-database CSV.
rascad::core::Project load(const std::string& path,
                           const char* parts_path) {
  auto model = rascad::spec::parse_model_file(path);
  if (parts_path) {
    const auto db = rascad::core::PartsDatabase::from_csv_file(parts_path);
    const auto report = rascad::core::apply_parts_database(model, db);
    for (const auto& line : report.enriched) {
      std::cerr << "parts: " << line << '\n';
    }
    for (const auto& line : report.unknown_parts) {
      std::cerr << "parts: unknown " << line << '\n';
    }
  }
  return rascad::core::Project::from_spec(std::move(model));
}

int cmd_check(const std::string& path) {
  const auto model = rascad::spec::parse_model_file(path);
  const auto report = rascad::spec::validate(model);
  std::cout << report.to_string();
  if (report.ok()) {
    std::cout << "ok: " << model.diagrams.size() << " diagram(s), root '"
              << model.root().name << "'\n";
    return 0;
  }
  std::cout << report.error_count() << " error(s)\n";
  return 1;
}

int cmd_dot(const std::string& path) {
  const auto project = load(path, nullptr);
  rascad::core::write_system_dot(std::cout, project.system());
  return 0;
}

int cmd_importance(const std::string& path) {
  const auto project = load(path, nullptr);
  const auto imps = rascad::core::block_importance(project.system());
  std::cout << std::left << std::setw(24) << "block" << std::right
            << std::setw(13) << "criticality" << std::setw(12) << "Birnbaum"
            << std::setw(10) << "RAW" << std::setw(10) << "RRW"
            << std::setw(14) << "dt (min/y)" << '\n';
  for (const auto& i : imps) {
    std::cout << std::left << std::setw(24) << i.block.substr(0, 23)
              << std::right << std::setw(13) << std::setprecision(4)
              << i.criticality << std::setw(12) << i.birnbaum << std::setw(10)
              << std::setprecision(1) << std::fixed << i.raw << std::setw(10)
              << i.rrw << std::setw(14) << std::setprecision(3)
              << i.yearly_downtime_min << '\n';
    std::cout.unsetf(std::ios::fixed);
  }
  return 0;
}

int cmd_solve(const std::string& path, const char* parts) {
  const auto project = load(path, parts);
  std::cout << "availability          " << project.availability() << '\n';
  std::cout << "yearly downtime (min) " << project.yearly_downtime_min()
            << '\n';
  std::cout << "system MTBF (h)       " << project.mtbf_h() << '\n';
  std::cout << "interval availability " << project.interval_availability_at_mission()
            << "  (mission "
            << project.spec().globals.mission_time_h << " h)\n";
  std::cout << "reliability at mission " << project.reliability_at_mission()
            << '\n';
  return 0;
}

int cmd_report(const std::string& path, const char* parts) {
  const auto project = load(path, parts);
  rascad::core::ReportOptions opts;
  opts.include_chain_dumps = true;
  rascad::core::write_report(std::cout, project.system(), opts);
  return 0;
}

int cmd_compare(const std::string& path_a, const std::string& path_b) {
  const auto a = load(path_a, nullptr);
  const auto b = load(path_b, nullptr);
  rascad::core::write_comparison(
      std::cout, rascad::core::compare_systems(a.system(), b.system()));
  return 0;
}

int cmd_explain(const std::string& path) {
  const auto model = rascad::spec::parse_model_file(path);
  rascad::spec::validate_or_throw(model);
  for (const auto& diagram : model.diagrams) {
    std::cout << "diagram '" << diagram.name << "'\n";
    for (const auto& block : diagram.blocks) {
      if (block.subdiagram) {
        std::cout << "block '" << block.name << "': expands into subdiagram '"
                  << *block.subdiagram << "'\n";
      }
      if (block.has_own_failures()) {
        std::cout << rascad::mg::explain(block, model.globals);
      }
      std::cout << '\n';
    }
  }
  return 0;
}

int cmd_simulate(const std::string& path, int argc, char** argv) {
  double horizon = 8760.0;
  std::size_t reps = 50;
  if (argc > 3 && !(parse_whole(argv[3], horizon) && std::isfinite(horizon) &&
                    horizon > 0.0)) {
    std::cerr << "simulate: hours must be a positive number, got '" << argv[3]
              << "'\n";
    return usage();
  }
  if (argc > 4 && !(parse_whole(argv[4], reps) && reps >= 1)) {
    std::cerr << "simulate: reps must be a positive integer, got '" << argv[4]
              << "'\n";
    return usage();
  }
  const auto model = rascad::spec::parse_model_file(path);
  const auto project = rascad::core::Project::from_spec(model);
  const auto rep = rascad::sim::replicate_system_streaming(model, horizon,
                                                           reps, 1);
  const auto ci = rep.availability.confidence_interval();
  std::cout << std::setprecision(8);
  std::cout << "analytic availability : " << project.availability() << '\n';
  std::cout << "simulated (n=" << reps << ", " << horizon
            << " h): " << rep.availability.mean() << "  95% CI [" << ci.lo
            << ", " << ci.hi << "]\n";
  std::cout << "simulated downtime    : " << std::setprecision(2)
            << std::fixed << rep.downtime_minutes.mean()
            << " min per interval, " << rep.outages.mean()
            << " outages on average\n";
  return 0;
}

int cmd_library(int argc, char** argv) {
  const auto entries = rascad::core::library::all_models();
  if (argc < 3) {
    for (const auto& e : entries) std::cout << e.name << '\n';
    return 0;
  }
  const std::string name = argv[2];
  for (const auto& e : entries) {
    if (e.name == name) {
      rascad::spec::write_model(std::cout, e.factory());
      return 0;
    }
  }
  std::cerr << "no library model named '" << name << "'\n";
  return 1;
}

int run_cli(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "library") return cmd_library(argc, argv);
    if (argc < 3) return usage();
    const char* parts = argc > 3 ? argv[3] : nullptr;
    if (cmd == "check") return cmd_check(argv[2]);
    if (cmd == "dot") return cmd_dot(argv[2]);
    if (cmd == "importance") return cmd_importance(argv[2]);
    if (cmd == "solve") return cmd_solve(argv[2], parts);
    if (cmd == "report") return cmd_report(argv[2], parts);
    if (cmd == "simulate") return cmd_simulate(argv[2], argc, argv);
    if (cmd == "explain") return cmd_explain(argv[2]);
    if (cmd == "compare" && argc > 3) return cmd_compare(argv[2], argv[3]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = run_cli(argc, argv);
  // One JSONL trace per invocation when RASCAD_OBS=1.
  rascad::obs::dump_if_enabled();
  return rc;
}
