// Resumable, event-stepped replay of one MG block's semantics.
//
// The block semantics run as a *schedulable process* (the gacspp
// CScheduleable idiom): advance one scheduled event at a time and yield
// each down window as it is produced, so the system-level event engine
// can run a streaming k-way sweep over all blocks without ever
// materializing per-block interval vectors. simulate_block drains the
// same process into a vector for single-block inspection.
//
// Determinism contract: a process's RNG draws are a pure function of its
// stream, so the windows simulate_block materializes are exactly the
// windows the event engine consumes for the same (seed, stream, options).
// sim_stream_test checks the engine's union against the sort+merge union
// of those windows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dist/distribution.hpp"
#include "mg/generator.hpp"
#include "sim/stats.hpp"
#include "spec/ast.hpp"

namespace rascad::sim {

struct BlockSimOptions {
  /// true: all durations exponential with the spec means (matches the
  /// generated chain's assumptions). false: repair/logistic stages use
  /// deterministic+lognormal shapes with the same means.
  bool exponential_everything = true;
  /// Coefficient of variation for the lognormal repair stages when
  /// exponential_everything is false.
  double repair_cv = 0.7;

  /// Common-cause injection (ablation of the paper's independence
  /// assumption): at each of these absolute times (hours, sorted), the
  /// block suffers a permanent fault of one component with probability
  /// `p_common_cause`. The caller shares ONE schedule across all blocks,
  /// which is exactly what makes the faults correlated.
  const std::vector<double>* common_cause_times = nullptr;
  double p_common_cause = 0.0;
};

/// Running per-block event accounting, shared by both engines.
struct BlockTallies {
  double down_time = 0.0;
  std::size_t permanent_faults = 0;
  std::size_t transient_faults = 0;
  std::size_t latent_faults = 0;
  std::size_t spf_events = 0;
  std::size_t service_errors = 0;
  std::size_t repairs_completed = 0;
  std::size_t outages = 0;   // distinct down windows yielded
  std::uint64_t events = 0;  // scheduled events consumed
};

/// One simulated block lifetime, advanced event by event. Down windows are
/// blocking dwells (no other clock advances inside them), matching the
/// generated chain's semantics where AR/SPF/repair states have no failure
/// arcs. Construct, then drain next_window() until it returns false.
///
/// The process borrows `block`, `globals`, `rng`, and `opts`; all four
/// must outlive it.
class BlockEventProcess {
 public:
  /// Throws std::invalid_argument when the horizon is not positive (same
  /// precondition as simulate_block).
  BlockEventProcess(const spec::BlockSpec& block,
                    const spec::GlobalParams& globals, double horizon,
                    dist::RandomSource& rng, const BlockSimOptions& opts);

  /// Advances the process until its next down window is produced. Returns
  /// false when no further window occurs before the horizon; the process
  /// is then exhausted. Windows come out in nondecreasing start order.
  bool next_window(Interval& out);

  /// Rewinds the process to its just-constructed state (time 0, empty
  /// tallies, all clocks cleared) without re-deriving rates or
  /// re-classifying the family. The caller reseeds the RNG separately;
  /// after both, the replay is bitwise identical to a fresh construction.
  void reset() noexcept;

  const BlockTallies& tallies() const noexcept { return tallies_; }
  /// Current simulated time (hours); horizon when exhausted.
  double time() const noexcept { return t_; }
  bool exhausted() const noexcept { return done_ && !has_pending_; }

 private:
  enum class Family : std::uint8_t {
    kType0,
    kTransientOnly,
    kSymmetric,
    kPrimaryStandby,
  };
  enum class PsMode : std::uint8_t { kOk, kDegraded, kStandbyDown };

  // One scheduled event: exactly one iteration of the family's loop.
  void step();
  void step_type0();
  void step_transient_only();
  void step_symmetric();
  void step_primary_standby();

  double exp_sample(double mean);
  double repair_stage(double mean_h);
  double logistic_stage(double mean_h);
  double dwell_stage(double mean_h) { return logistic_stage(mean_h); }
  bool chance(double p);
  void down(double duration);
  void down_frozen(double duration);
  double deferred_repair_sample();
  double immediate_repair_sample();
  double next_common_cause();
  void detected_fault_recovery();

  const spec::BlockSpec& block_;
  const mg::DerivedRates d_;
  dist::RandomSource& rng_;
  const BlockSimOptions& opts_;

  Family family_ = Family::kType0;
  double horizon_ = 0.0;
  double t_ = 0.0;
  std::size_t cc_index_ = 0;  // cursor into opts_.common_cause_times
  bool done_ = false;

  // The window produced by the current step, if any (at most one per
  // event; zero-length dwells never surface).
  Interval pending_{0.0, 0.0};
  bool has_pending_ = false;

  // Symmetric-redundancy (Types 1-4) loop state.
  unsigned sym_failed_ = 0;  // detected failed components awaiting repair
  unsigned sym_latent_ = 0;  // undetected failed components
  double sym_repair_due_ = 0.0;
  double sym_latent_detect_due_ = 0.0;

  // Primary/standby loop state.
  PsMode ps_mode_ = PsMode::kOk;
  double ps_repair_due_ = 0.0;
  double ps_fault_mean_ = 0.0;

  BlockTallies tallies_;
};

}  // namespace rascad::sim
