// Streaming statistics for million-replication Monte-Carlo runs.
//
// Every system-level replication runs on the event engine
// (sim/event_engine.hpp). Memory must not grow with the replication
// count, or a million-replication five-nines cross-check is out of
// reach, so this layer never keeps more than one bounded batch of
// per-replication samples alive:
//
//   * Welford moments (SampleStats) for mean / variance / CI,
//   * P² quantile estimators (Jain & Chlamtac 1985) for p50/p99/p999
//     availability and outage-duration quantiles — five markers per
//     quantile, O(1) memory, no sample retention,
//   * online CI half-width early exit (`stop_when_ci_below`),
//   * a JSONL sink (sim/sink.hpp) the fold appends each replication's
//     record to, in index order; a failed write throws.
//
// Determinism contract: replications are generated in parallel into a
// fixed batch of slots by index, then folded into every accumulator in
// global replication-index order on the calling thread. The statistics —
// including the P² marker states — are therefore bitwise identical for
// every thread count, and identical to a serial run. Cancellation is
// polled between batches: a deadline cuts the run at a batch boundary and
// the folded prefix keeps its PointStatus provenance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "exec/parallel.hpp"
#include "robust/cancel.hpp"
#include "sim/event_engine.hpp"
#include "sim/stats.hpp"

namespace rascad::sim {

/// Streaming quantile estimator: the P² algorithm with five markers.
/// Exact (nearest-rank on the retained samples) below five observations,
/// piecewise-parabolic marker tracking afterwards. A pure sequential
/// function of the sample order, so index-ordered folds make it
/// deterministic across thread counts.
class P2Quantile {
 public:
  explicit P2Quantile(double p);

  void add(double x);

  /// Current estimate; NaN before the first sample.
  double value() const noexcept;
  std::size_t count() const noexcept { return n_; }
  double p() const noexcept { return p_; }

 private:
  double p_;
  std::size_t n_ = 0;
  double q_[5];        // marker heights
  double pos_[5];      // marker positions (1-based counts)
  double desired_[5];  // desired marker positions
  double dpos_[5];     // desired-position increments per sample
};

/// How replicate_system_streaming runs and when it stops early.
struct StreamingOptions {
  BlockSimOptions block;
  /// Replications generated (in parallel) per fold batch; also the
  /// cancellation grain and the memory high-water mark.
  std::size_t batch = 4096;
  /// Early exit: stop once the 95% availability CI half-width (z = 1.96)
  /// drops to or below this value, and at least 256 replications have
  /// run (variance estimates on tiny samples are noise). 0 disables the
  /// check.
  double stop_when_ci_below = 0.0;
  /// When non-empty, every folded replication appends one JSONL record.
  /// Throws std::runtime_error if the file cannot be opened, or once a
  /// write to it has failed.
  std::string jsonl_path;
  /// Threading for the per-batch generation loop. `parallel.cancel` is
  /// honored BETWEEN batches (degrade-to-prefix), never inside one.
  exec::ParallelOptions parallel;
};

struct StreamingReplicationResult {
  SampleStats availability;
  SampleStats downtime_minutes;
  SampleStats outages;

  P2Quantile availability_p50{0.50};
  P2Quantile availability_p99{0.99};
  P2Quantile availability_p999{0.999};
  /// Individual merged system outage durations (minutes), streamed in
  /// time order within each replication; empty (value() is NaN) until a
  /// replication has an outage.
  P2Quantile outage_minutes_p50{0.50};
  P2Quantile outage_minutes_p99{0.99};

  std::uint64_t events = 0;  // scheduled block events across replications
  std::size_t requested = 0;
  std::size_t completed = 0;
  /// True when stop_when_ci_below ended the run before `requested`.
  bool early_exit = false;
  /// kOk for full runs and CI early exits; a cancel/deadline stop between
  /// batches records why the remainder never ran.
  robust::PointStatus status = robust::PointStatus::kOk;

  bool complete() const noexcept { return completed == requested; }
  double ci_half_width(double z = 1.96) const noexcept {
    return z * availability.std_error();
  }
};

/// Monte-Carlo system availability with streaming statistics: peak memory
/// is O(batch), independent of `replications`. Replication r is
/// simulate_system with seed base_seed + 0x1000 * (r + 1), so for a fixed
/// seed the folded samples are bitwise identical across every thread
/// count and batch size. Throws std::invalid_argument on validation
/// failures, a non-positive horizon, or zero replications.
StreamingReplicationResult replicate_system_streaming(
    const spec::ModelSpec& model, double horizon, std::size_t replications,
    std::uint64_t base_seed, const StreamingOptions& opts = {});

}  // namespace rascad::sim
