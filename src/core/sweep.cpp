#include "core/sweep.hpp"

#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace rascad::core {

namespace {

/// Tallies a solved system into a SweepPoint, including the per-block
/// solve provenance recorded on each SolveTrace.
SweepPoint summarize(const mg::SystemModel& system, double value) {
  SweepPoint p;
  p.value = value;
  p.availability = system.availability();
  p.yearly_downtime_min = system.yearly_downtime_min();
  p.eq_failure_rate = system.eq_failure_rate();
  for (const auto& entry : system.blocks()) {
    switch (entry.solve_trace.source) {
      case markov::SolveSource::kFresh:
        ++p.fresh_blocks;
        break;
      case markov::SolveSource::kCacheHit:
        ++p.cached_blocks;
        break;
      case markov::SolveSource::kBaselineReuse:
        ++p.reused_blocks;
        break;
    }
  }
  if (p.fresh_blocks == 0 && p.cached_blocks == 0) {
    p.solve_source = "baseline";
  } else if (p.fresh_blocks == 0) {
    p.solve_source = "cache";
  } else {
    p.solve_source = "fresh";
  }
  return p;
}

/// A point that never completed: NaN measures plus the reason it is
/// missing, so a degraded series is never mistaken for a healthy one.
SweepPoint degraded_point(double value, robust::PointStatus status,
                          std::string detail) {
  SweepPoint p;
  p.value = value;
  p.availability = std::numeric_limits<double>::quiet_NaN();
  p.yearly_downtime_min = p.availability;
  p.eq_failure_rate = p.availability;
  p.solve_source = "none";
  p.status = status;
  p.status_detail = std::move(detail);
  return p;
}

/// Shared driver: `mutate_model` applies one sweep value to a spec copy.
/// One full solve of the base spec; every point then re-solves only the
/// blocks its mutation dirties (signature diff inside rebuild). The
/// baseline is read-only, so points run in parallel.
std::vector<SweepPoint> run_sweep(
    const spec::ModelSpec& base,
    const std::function<void(spec::ModelSpec&, double)>& mutate_model,
    const std::vector<double>& values, const SweepOptions& opts) {
  obs::Span sweep_span("sweep.run");
  if (sweep_span.active()) {
    sweep_span.set_detail("points=" + std::to_string(values.size()));
  }
  std::vector<SweepPoint> points(values.size());

  // A request token opts the sweep into graceful degradation; it also fans
  // into every build/rebuild so already-running solves stop at their next
  // checkpoint instead of finishing a doomed point.
  const robust::CancelToken stop = opts.parallel.cancel;
  const bool degrade = stop.valid();
  mg::SystemModel::Options model_opts = opts.model;
  if (degrade && !model_opts.parallel.cancel.valid()) {
    model_opts.parallel.cancel = stop;
  }

  // In degraded mode a failed / cancelled baseline marks every point
  // instead of throwing.
  std::optional<mg::SystemModel> baseline;
  try {
    baseline.emplace(mg::SystemModel::build(base, model_opts));
  } catch (...) {
    if (!degrade) throw;
    const auto folded =
        robust::point_status_from_exception(std::current_exception());
    for (std::size_t i = 0; i < values.size(); ++i) {
      points[i] = degraded_point(values[i], folded.first,
                                 "baseline build: " + folded.second);
    }
    return points;
  }

  const auto solve_point = [&](std::size_t i) {
    obs::Span point_span("sweep.point");
    if (point_span.active()) {
      point_span.set_detail("i=" + std::to_string(i));
      static obs::Counter& points_total =
          obs::Registry::global().counter("sweep.points");
      points_total.inc();
    }
    spec::ModelSpec model = base;
    mutate_model(model, values[i]);
    points[i] = summarize(
        mg::SystemModel::rebuild(*baseline, std::move(model), model_opts),
        values[i]);
  };
  if (!degrade) {
    exec::parallel_for(values.size(), solve_point, opts.parallel);
    return points;
  }

  // Degraded mode: the loop itself runs without the token. Each point
  // checks it first, so a point the stop reaches before it starts is
  // marked skipped, and a point that fails folds its own failure.
  exec::ParallelOptions loop = opts.parallel;
  loop.cancel = robust::CancelToken{};
  exec::parallel_for(
      values.size(),
      [&](std::size_t i) {
        if (stop.stop_requested()) {
          const robust::StopReason r = stop.reason();
          points[i] = degraded_point(
              values[i], robust::point_status_from(r),
              std::string("point skipped (") + robust::to_string(r) + ")");
          return;
        }
        try {
          solve_point(i);
        } catch (...) {
          auto folded =
              robust::point_status_from_exception(std::current_exception());
          points[i] = degraded_point(values[i], folded.first,
                                     std::move(folded.second));
        }
      },
      loop);
  return points;
}

}  // namespace

std::vector<SweepPoint> sweep_block_parameter(
    const spec::ModelSpec& base, const std::string& diagram,
    const std::string& block, const BlockMutator& mutate,
    const std::vector<double>& values, const SweepOptions& opts) {
  if (!mutate) {
    throw std::invalid_argument("sweep_block_parameter: null mutator");
  }
  if (!base.find_block(diagram, block)) {
    throw std::invalid_argument("sweep_block_parameter: no block '" + block +
                                "' in diagram '" + diagram + "'");
  }
  return run_sweep(
      base,
      [&](spec::ModelSpec& model, double value) {
        mutate(*model.find_block(diagram, block), value);
      },
      values, opts);
}

std::vector<SweepPoint> sweep_block_parameter(
    const spec::ModelSpec& base, const std::string& diagram,
    const std::string& block, const BlockMutator& mutate,
    const std::vector<double>& values, const exec::ParallelOptions& par) {
  SweepOptions opts;
  opts.parallel = par;
  return sweep_block_parameter(base, diagram, block, mutate, values, opts);
}

std::vector<SweepPoint> sweep_global_parameter(
    const spec::ModelSpec& base, const GlobalMutator& mutate,
    const std::vector<double>& values, const SweepOptions& opts) {
  if (!mutate) {
    throw std::invalid_argument("sweep_global_parameter: null mutator");
  }
  return run_sweep(
      base,
      [&](spec::ModelSpec& model, double value) {
        mutate(model.globals, value);
      },
      values, opts);
}

std::vector<SweepPoint> sweep_global_parameter(
    const spec::ModelSpec& base, const GlobalMutator& mutate,
    const std::vector<double>& values, const exec::ParallelOptions& par) {
  SweepOptions opts;
  opts.parallel = par;
  return sweep_global_parameter(base, mutate, values, opts);
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  if (n < 2) throw std::invalid_argument("linspace: need at least 2 points");
  std::vector<double> v(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = lo + step * static_cast<double>(i);
  }
  v.back() = hi;
  return v;
}

std::vector<double> logspace(double lo, double hi, std::size_t n) {
  if (n < 2) throw std::invalid_argument("logspace: need at least 2 points");
  if (!(lo > 0.0) || !(hi > 0.0)) {
    throw std::invalid_argument("logspace: bounds must be positive");
  }
  std::vector<double> v(n);
  const double llo = std::log(lo);
  const double lhi = std::log(hi);
  const double step = (lhi - llo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::exp(llo + step * static_cast<double>(i));
  }
  // exp(log(x)) need not round-trip; callers expect exact bounds.
  v.front() = lo;
  v.back() = hi;
  return v;
}

}  // namespace rascad::core
