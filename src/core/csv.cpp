#include "core/csv.hpp"

#include <charconv>
#include <cstdlib>
#include <iomanip>
#include <istream>
#include <locale>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "robust/cancel.hpp"

namespace rascad::core {

namespace {

/// Restores a caller-supplied stream's formatting state on scope exit: the
/// writers raise the precision for round-trippable doubles, which must not
/// leak into whatever the caller prints next. Also pins the stream to the
/// classic "C" locale for the scope — a process running under a
/// comma-decimal locale (LC_NUMERIC=de_DE et al.) would otherwise write
/// "0,5" and corrupt the column structure.
class StreamStateGuard {
 public:
  explicit StreamStateGuard(std::ostream& os)
      : os_(os), flags_(os.flags()), precision_(os.precision()),
        locale_(os.imbue(std::locale::classic())) {}
  ~StreamStateGuard() {
    os_.flags(flags_);
    os_.precision(precision_);
    os_.imbue(locale_);
  }
  StreamStateGuard(const StreamStateGuard&) = delete;
  StreamStateGuard& operator=(const StreamStateGuard&) = delete;

 private:
  std::ostream& os_;
  std::ios_base::fmtflags flags_;
  std::streamsize precision_;
  std::locale locale_;
};

/// Quotes a field if it contains CSV-active characters.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Splits one CSV line into fields, unescaping quoted fields ("" -> ").
/// The inverse of csv_field for everything the writers produce except
/// embedded newlines (none of our serialized fields carry them).
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

/// Locale-independent double parse. strtod honours LC_NUMERIC — under a
/// comma-decimal locale it stops at the '.' in "0.5" and every numeric CSV
/// field would be rejected — so the readers go through std::from_chars,
/// which is specified to parse the classic format only ("nan"/"inf"
/// included, as the writers emit for degraded rows).
double parse_double(const std::string& s, const char* who) {
  double v = 0.0;
  const char* first = s.data();
  const char* last = first + s.size();
  const auto r = std::from_chars(first, last, v);
  if (r.ec != std::errc() || r.ptr != last) {
    throw std::invalid_argument(std::string(who) + ": bad number '" + s + "'");
  }
  return v;
}

std::size_t parse_size(const std::string& s, const char* who) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    throw std::invalid_argument(std::string(who) + ": bad count '" + s + "'");
  }
  return static_cast<std::size_t>(v);
}

robust::PointStatus parse_status(const std::string& s, const char* who) {
  robust::PointStatus status = robust::PointStatus::kOk;
  if (!robust::point_status_from_string(s, status)) {
    throw std::invalid_argument(std::string(who) + ": bad status '" + s + "'");
  }
  return status;
}

}  // namespace

void write_sweep_csv(std::ostream& os, const std::vector<SweepPoint>& points) {
  StreamStateGuard guard(os);
  os << "value,availability,yearly_downtime_min,eq_failure_rate,"
        "solve_source,fresh_blocks,cached_blocks,reused_blocks,"
        "solve_iterations,status,status_detail\n";
  os << std::setprecision(12);
  for (const auto& p : points) {
    os << p.value << ',' << p.availability << ',' << p.yearly_downtime_min
       << ',' << p.eq_failure_rate << ',' << csv_field(p.solve_source) << ','
       << p.fresh_blocks << ',' << p.cached_blocks << ',' << p.reused_blocks
       << ",0,"  // solve_iterations: the exact elimination never iterates
       << csv_field(robust::to_string(p.status)) << ','
       << csv_field(p.status_detail) << '\n';
  }
}

std::vector<SweepPoint> read_sweep_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::invalid_argument("read_sweep_csv: empty input");
  }
  if (line.rfind("value,availability,", 0) != 0) {
    throw std::invalid_argument("read_sweep_csv: unexpected header '" + line +
                                "'");
  }
  std::vector<SweepPoint> out;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = split_csv_line(line);
    if (f.size() != 11) {
      throw std::invalid_argument("read_sweep_csv: expected 11 fields, got " +
                                  std::to_string(f.size()));
    }
    SweepPoint p;
    p.value = parse_double(f[0], "read_sweep_csv");
    p.availability = parse_double(f[1], "read_sweep_csv");
    p.yearly_downtime_min = parse_double(f[2], "read_sweep_csv");
    p.eq_failure_rate = parse_double(f[3], "read_sweep_csv");
    p.solve_source = f[4];
    p.fresh_blocks = parse_size(f[5], "read_sweep_csv");
    p.cached_blocks = parse_size(f[6], "read_sweep_csv");
    p.reused_blocks = parse_size(f[7], "read_sweep_csv");
    // f[8] is solve_iterations, always 0 (see write_sweep_csv).
    p.status = parse_status(f[9], "read_sweep_csv");
    p.status_detail = f[10];
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<SweepPoint> read_sweep_csv(const std::string& csv) {
  std::istringstream is(csv);
  return read_sweep_csv(is);
}

std::string sweep_csv(const std::vector<SweepPoint>& points) {
  std::ostringstream os;
  write_sweep_csv(os, points);
  return os.str();
}

void write_curve_csv(std::ostream& os, const linalg::Vector& curve,
                     double horizon) {
  StreamStateGuard guard(os);
  os << "t,value\n";
  os << std::setprecision(12);
  if (curve.empty()) return;
  const double step =
      curve.size() > 1 ? horizon / static_cast<double>(curve.size() - 1) : 0.0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    os << static_cast<double>(i) * step << ',' << curve[i] << '\n';
  }
}

std::string curve_csv(const linalg::Vector& curve, double horizon) {
  std::ostringstream os;
  write_curve_csv(os, curve, horizon);
  return os.str();
}

void write_blocks_csv(std::ostream& os, const mg::SystemModel& system) {
  StreamStateGuard guard(os);
  os << "diagram,block,quantity,min_quantity,model_type,states,availability,"
        "yearly_downtime_min,solve_source,solve_iterations\n";
  os << std::setprecision(12);
  for (const auto& b : system.blocks()) {
    os << csv_field(b.diagram) << ',' << csv_field(b.block.name) << ','
       << b.block.quantity << ',' << b.block.min_quantity << ','
       << csv_field(mg::to_string(b.type)) << ',' << b.chain->size() << ','
       << b.availability << ',' << b.yearly_downtime_min << ','
       << csv_field(markov::to_string(b.solve_trace.source))
       << ",0\n";  // solve_iterations: the exact elimination never iterates
  }
}

std::string blocks_csv(const mg::SystemModel& system) {
  std::ostringstream os;
  write_blocks_csv(os, system);
  return os.str();
}

void write_importance_csv(std::ostream& os,
                          const std::vector<BlockImportance>& imps) {
  StreamStateGuard guard(os);
  os << "diagram,block,availability,birnbaum,criticality,raw,rrw,"
        "solve_source,status,status_detail\n";
  os << std::setprecision(12);
  for (const auto& i : imps) {
    os << csv_field(i.diagram) << ',' << csv_field(i.block) << ','
       << i.availability << ',' << i.birnbaum << ',' << i.criticality << ','
       << i.raw << ',' << i.rrw << ',' << csv_field(i.solve_source) << ','
       << csv_field(robust::to_string(i.status)) << ','
       << csv_field(i.status_detail) << '\n';
  }
}

std::vector<BlockImportance> read_importance_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::invalid_argument("read_importance_csv: empty input");
  }
  if (line.rfind("diagram,block,", 0) != 0) {
    throw std::invalid_argument("read_importance_csv: unexpected header '" +
                                line + "'");
  }
  std::vector<BlockImportance> out;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = split_csv_line(line);
    if (f.size() != 10) {
      throw std::invalid_argument(
          "read_importance_csv: expected 10 fields, got " +
          std::to_string(f.size()));
    }
    BlockImportance imp;
    imp.diagram = f[0];
    imp.block = f[1];
    imp.availability = parse_double(f[2], "read_importance_csv");
    imp.birnbaum = parse_double(f[3], "read_importance_csv");
    imp.criticality = parse_double(f[4], "read_importance_csv");
    imp.raw = parse_double(f[5], "read_importance_csv");
    imp.rrw = parse_double(f[6], "read_importance_csv");
    imp.solve_source = f[7];
    imp.status = parse_status(f[8], "read_importance_csv");
    imp.status_detail = f[9];
    out.push_back(std::move(imp));
  }
  return out;
}

std::vector<BlockImportance> read_importance_csv(const std::string& csv) {
  std::istringstream is(csv);
  return read_importance_csv(is);
}

std::string importance_csv(const std::vector<BlockImportance>& imps) {
  std::ostringstream os;
  write_importance_csv(os, imps);
  return os.str();
}

}  // namespace rascad::core
