#include "sim/streaming.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/sink.hpp"
#include "spec/validate.hpp"

namespace rascad::sim {

// ---------------------------------------------------------------------------
// P² quantile estimator (Jain & Chlamtac, CACM 1985).
// ---------------------------------------------------------------------------

P2Quantile::P2Quantile(double p) : p_(p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("P2Quantile: p must be in (0, 1)");
  }
  for (int i = 0; i < 5; ++i) {
    q_[i] = 0.0;
    pos_[i] = 0.0;
    desired_[i] = 0.0;
    dpos_[i] = 0.0;
  }
}

void P2Quantile::add(double x) {
  if (n_ < 5) {
    // Warm-up: keep the first five observations sorted; they become the
    // initial markers.
    q_[n_] = x;
    ++n_;
    std::sort(q_, q_ + n_);
    if (n_ == 5) {
      for (int i = 0; i < 5; ++i) pos_[i] = static_cast<double>(i + 1);
      desired_[0] = 1.0;
      desired_[1] = 1.0 + 2.0 * p_;
      desired_[2] = 1.0 + 4.0 * p_;
      desired_[3] = 3.0 + 2.0 * p_;
      desired_[4] = 5.0;
      dpos_[0] = 0.0;
      dpos_[1] = p_ / 2.0;
      dpos_[2] = p_;
      dpos_[3] = (1.0 + p_) / 2.0;
      dpos_[4] = 1.0;
    }
    return;
  }

  // Locate the cell q_[k] <= x < q_[k+1]; extremes clamp the end markers.
  int k;
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x >= q_[4]) {
    q_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= q_[k + 1]) ++k;
  }
  ++n_;
  for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  // Only the interior markers have moving desired positions (the end
  // markers' are pinned to 1 and n), and only they are ever adjusted.
  for (int i = 1; i <= 3; ++i) desired_[i] += dpos_[i];

  // Adjust the three interior markers toward their desired positions with
  // the piecewise-parabolic (P²) formula, falling back to linear when the
  // parabola would leave the bracketing markers' order. The parabolic
  // update is algebraically the textbook three-division form rearranged
  // over a common denominator: one division per adjustment, and this loop
  // is the innermost cost of the streaming fold (every merged outage
  // window feeds two estimators).
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - pos_[i];
    const double gap_hi = pos_[i + 1] - pos_[i];
    const double gap_lo = pos_[i] - pos_[i - 1];
    if ((d >= 1.0 && gap_hi > 1.0) || (d <= -1.0 && gap_lo > 1.0)) {
      const double s = d >= 1.0 ? 1.0 : -1.0;
      const double qp =
          q_[i] + s * ((gap_lo + s) * (q_[i + 1] - q_[i]) * gap_lo +
                       (gap_hi - s) * (q_[i] - q_[i - 1]) * gap_hi) /
                      ((gap_lo + gap_hi) * gap_hi * gap_lo);
      if (q_[i - 1] < qp && qp < q_[i + 1]) {
        q_[i] = qp;
      } else {
        const int j = s > 0.0 ? i + 1 : i - 1;
        q_[i] += s * (q_[j] - q_[i]) / (pos_[j] - pos_[i]);
      }
      pos_[i] += s;
    }
  }
}

double P2Quantile::value() const noexcept {
  if (n_ == 0) return std::numeric_limits<double>::quiet_NaN();
  if (n_ < 5) {
    // Exact nearest-rank on the retained (sorted) warm-up samples.
    const double rank = std::ceil(p_ * static_cast<double>(n_));
    std::size_t idx =
        rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (idx >= n_) idx = n_ - 1;
    return q_[idx];
  }
  return q_[2];
}

// ---------------------------------------------------------------------------
// Streaming replication driver.
// ---------------------------------------------------------------------------

namespace {

/// One replication's outputs, reused across batches — the only
/// per-replication storage the driver ever holds.
struct Slot {
  double availability = 0.0;
  double downtime_min = 0.0;
  double outages = 0.0;
  std::uint64_t events = 0;
  // Its merged window lengths: [window_begin, window_end) of its lane's
  // outage_min.
  std::size_t window_begin = 0;
  std::size_t window_end = 0;
};

/// A contiguous run of a batch's slots, simulated in index order by one
/// task: their outage windows in one buffer, and the engine scratch they
/// share. The lanes hold every buffer the worker threads grow, so the
/// driver's memory does not depend on how many replications run: buffers
/// grown per slot land in the allocator arena of whichever thread ran the
/// slot, and every arena reaches its own high-water mark.
struct Lane {
  std::vector<double> outage_min;
  EventWorkspace workspace;  // engine scratch, reused across batches
};

/// Lanes per batch: enough for the pool to balance its threads, few
/// enough that their buffers stay small. Results never depend on it.
constexpr std::size_t kLanes = 64;

}  // namespace

StreamingReplicationResult replicate_system_streaming(
    const spec::ModelSpec& model, double horizon, std::size_t replications,
    std::uint64_t base_seed, const StreamingOptions& opts) {
  spec::validate_or_throw(model);
  if (!(horizon > 0.0)) {
    throw std::invalid_argument(
        "replicate_system_streaming: horizon must be positive");
  }
  if (replications == 0) {
    throw std::invalid_argument(
        "replicate_system_streaming: replications must be positive");
  }
  const std::vector<const spec::BlockSpec*> blocks =
      collect_failing_blocks(model);

  StreamingReplicationResult out;
  out.requested = replications;

  obs::Span run_span("sim.replicate");
  if (run_span.active()) {
    run_span.set_detail("reps=" + std::to_string(replications) +
                        " blocks=" + std::to_string(blocks.size()));
  }

  std::unique_ptr<ReplicationSink> sink;
  if (!opts.jsonl_path.empty()) {
    sink = std::make_unique<ReplicationSink>(opts.jsonl_path,
                                             opts.sink_capacity);
  }

  const std::size_t batch = std::max<std::size_t>(1, opts.batch);
  std::vector<Slot> slots(std::min(batch, replications));
  std::vector<Lane> lanes(std::min(kLanes, slots.size()));

  // The outer loop owns cancellation: the token is polled between batches
  // so a cut lands on a batch boundary and the folded prefix stays a
  // deterministic straight run. The inner parallel_for must therefore not
  // see the token (a mid-batch stop would skip indices and break the
  // index-ordered fold).
  exec::ParallelOptions inner = opts.parallel;
  inner.cancel = robust::CancelToken{};

  using Clock = std::chrono::steady_clock;

  std::size_t next = 0;
  while (next < replications) {
    if (opts.parallel.cancel.valid() &&
        opts.parallel.cancel.stop_requested()) {
      out.status = robust::point_status_from(opts.parallel.cancel.reason());
      break;
    }
    const std::size_t n = std::min(batch, replications - next);
    const std::size_t per_lane = (n + lanes.size() - 1) / lanes.size();
    const Clock::time_point t0 = Clock::now();

    exec::parallel_for(
        lanes.size(),
        [&](std::size_t l) {
          Lane& lane = lanes[l];
          lane.outage_min.clear();
          const std::size_t end = std::min(n, (l + 1) * per_lane);
          for (std::size_t i = l * per_lane; i < end; ++i) {
            Slot& s = slots[i];
            // Seeded by replication index alone, so the folded samples do
            // not depend on batch size or thread count.
            const std::uint64_t seed =
                base_seed + 0x1000 * static_cast<std::uint64_t>(next + i + 1);
            s.window_begin = lane.outage_min.size();
            const SystemSimResult one = simulate_replication_events(
                blocks, model.globals, horizon, seed, opts.block,
                &lane.outage_min, &lane.workspace);
            s.window_end = lane.outage_min.size();
            s.availability = one.availability();
            s.downtime_min = one.downtime_minutes();
            s.outages = static_cast<double>(one.outages);
            s.events = one.events;
          }
        },
        inner);

    // Index-ordered fold on the calling thread: Welford and P² marker
    // states see the samples in global replication order, independent of
    // how the batch was scheduled.
    std::uint64_t batch_events = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Slot& s = slots[i];
      out.availability.add(s.availability);
      out.downtime_minutes.add(s.downtime_min);
      out.outages.add(s.outages);
      out.availability_p50.add(s.availability);
      out.availability_p99.add(s.availability);
      out.availability_p999.add(s.availability);
      const std::vector<double>& windows = lanes[i / per_lane].outage_min;
      for (std::size_t k = s.window_begin; k < s.window_end; ++k) {
        out.outage_minutes_p50.add(windows[k]);
        out.outage_minutes_p99.add(windows[k]);
      }
      batch_events += s.events;
      if (sink) {
        sink->push({static_cast<std::uint64_t>(next + i), s.availability,
                    s.downtime_min, static_cast<std::uint64_t>(s.outages),
                    s.events});
      }
    }
    out.events += batch_events;
    out.completed += n;
    next += n;

    if (obs::enabled()) {
      static obs::Counter& reps_total =
          obs::Registry::global().counter("sim.replications");
      static obs::Counter& events_total =
          obs::Registry::global().counter("sim.events");
      static obs::Histogram& rep_ms =
          obs::Registry::global().histogram("sim.replication_ms");
      reps_total.inc(n);
      events_total.inc(batch_events);
      const double batch_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      // Histogram grain is the batch: one observation of the batch's mean
      // per-replication latency (per-replication observes would dominate
      // the hot loop at a million replications).
      rep_ms.observe_ms(batch_ms / static_cast<double>(n));
    }

    if (opts.stop_when_ci_below > 0.0 &&
        out.completed >= opts.min_replications &&
        out.availability.count() >= 2 &&
        out.ci_half_width(opts.ci_z) <= opts.stop_when_ci_below) {
      out.early_exit = out.completed < out.requested;
      break;
    }
  }

  if (sink) sink->close();
  return out;
}

}  // namespace rascad::sim
