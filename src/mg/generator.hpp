// Automatic Markov-model generation from MG block specifications — the
// paper's core contribution (Section 4).
//
// Each block is translated into one of six chain families:
//   Type 0           N == K, no redundancy (paper Figure 3)
//   Types 1..4       N > K, the four combinations of
//                    {transparent, nontransparent} recovery x repair,
//                    with Type 3 drawn in the paper's Figure 4
//   PrimaryStandby   the paper's announced work-in-progress, implemented
//                    here as an extension (two-node failover cluster)
//
// The redundancy depth M = N - K determines the number of generated
// degradation levels; states TF/AR/PF/Latent repeat per level exactly as
// the paper describes for N - K > 1. The full transition rules, including
// the [inferred] reconstructions of details not pinned down by the paper's
// prose, are documented in DESIGN.md Section 4 and asserted by the test
// suite.
#pragma once

#include <string>

#include "cache/signature.hpp"
#include "markov/ctmc.hpp"
#include "robust/cancel.hpp"
#include "semimarkov/smp.hpp"
#include "spec/ast.hpp"

namespace rascad::mg {

enum class MarkovModelType {
  kType0,
  kType1,  // transparent recovery, transparent repair
  kType2,  // transparent recovery, nontransparent repair
  kType3,  // nontransparent recovery, transparent repair
  kType4,  // nontransparent recovery, nontransparent repair
  kPrimaryStandby,
};

std::string to_string(MarkovModelType type);

/// Chain family the generator will emit for this block.
MarkovModelType classify(const spec::BlockSpec& block);

/// Rates and mean durations derived from block + global parameters, all in
/// hours (the chain's time unit). Exposed so tests and baselines can check
/// the arithmetic independently of chain structure.
struct DerivedRates {
  double lambda_p = 0.0;    // permanent failure rate per component (1/h)
  double lambda_t = 0.0;    // transient failure rate per component (1/h)
  double mttr_h = 0.0;      // sum of the three MTTR parts
  double t_resp_h = 0.0;    // service response time
  double mttm_h = 0.0;      // service restriction time (deferred repair)
  double mttrfid_h = 0.0;   // repair from incorrect diagnosis
  double t_boot_h = 0.0;    // reboot time
  double ar_time_h = 0.0;   // nontransparent AR downtime
  double t_spf_h = 0.0;     // SPF-state dwell
  double reint_h = 0.0;     // nontransparent reintegration downtime
  double mttdlf_h = 0.0;    // latent-fault detection time
  double failover_h = 0.0;  // primary/standby failover downtime

  /// Deferred-repair cycle mean: MTTM + Tresp + MTTR (repair of a
  /// redundant component scheduled at the operator's convenience).
  double deferred_repair_h() const { return mttm_h + t_resp_h + mttr_h; }
  /// Immediate-repair cycle mean: Tresp + MTTR (system-down emergency).
  double immediate_repair_h() const { return t_resp_h + mttr_h; }
};

DerivedRates derive_rates(const spec::BlockSpec& block,
                          const spec::GlobalParams& globals);

/// A generated block model: the chain plus bookkeeping used by measures.
struct GeneratedModel {
  markov::Ctmc chain;
  MarkovModelType type = MarkovModelType::kType0;
  markov::StateIndex initial = 0;  // the fully-up state
  std::string block_name;
};

/// Reward structure for generated chains.
enum class RewardKind {
  /// 1 on up states, 0 on down states: the availability model (default).
  kAvailability,
  /// Delivered capacity: level-i up states carry (N - i) / N, so the
  /// expected reward is a performability measure (Meyer-style; the
  /// paper's references [1, 4, 6]) rather than plain availability.
  /// Degraded levels count their missing components even when the block
  /// still meets its K-of-N service requirement.
  kCapacity,
};

struct GenerationOptions {
  RewardKind reward = RewardKind::kAvailability;
};

/// Generates the Markov chain for one block. The block must have its own
/// failure behaviour (mtbf or transient_rate positive); blocks that only
/// wrap a subdiagram are handled at the hierarchy level. Throws
/// std::invalid_argument on specs the generator cannot express, and
/// robust::SolveError (kCancelled / kDeadlineExceeded) once `cancel` has
/// stopped; it polls `cancel` every markov::kCancelCheckInterval states.
///
/// The structure of a chain (its states with their names and rewards, and
/// the pattern of Q) is recorded once per thread and reused: a chain whose
/// structure the thread has recently generated only has its rates filled
/// in, and shares that structure's state table. Q has the same bits
/// either way.
GeneratedModel generate(const spec::BlockSpec& block,
                        const spec::GlobalParams& globals,
                        const GenerationOptions& options = {},
                        const robust::CancelToken& cancel = {});

/// The semi-Markov refinement of a block's chain (extension). The CTMC
/// takes every scheduled dwell as exponential; here each one is
/// deterministic: a reboot takes Tboot, a failover ar_time, the deferred
/// service window MTTM + Tresp + MTTR. It is read off the same recording
/// `generate` fills its chain from, so it has the chain's states, names
/// and rewards:
///
///  - a state left only by dwell arcs (AR, SPF, TF, Reint, the bottom PF
///    repair, Type 0's LogisticWait and Repair) dwells deterministically
///    and keeps its branch probabilities;
///  - a degraded up state whose deferred repair (delay D) races
///    exponential faults (total rate L) gets the exact competing-risk
///    embedding: P(repair first) = exp(-L D), mean sojourn
///    (1 - exp(-L D)) / L;
///  - every other state (Ok, SE, ServiceError, Latent1) is exponential.
///
/// Steady-state availability depends only on the embedded chain and the
/// mean sojourns, so the race states are where the exponential assumption
/// matters (EXPERIMENTS.md E13). Throws std::invalid_argument on every
/// spec `generate` rejects, on primary/standby blocks (CTMC-only) and on a
/// chain with a state that has no exits (a fully masked transient-only
/// block).
semimarkov::SemiMarkovProcess generate_smp(const spec::BlockSpec& block,
                                           const spec::GlobalParams& globals);

/// Steady-state availability of the semi-Markov refinement.
double smp_availability(const spec::BlockSpec& block,
                        const spec::GlobalParams& globals);

/// Canonical bit-exact signature of the chain `generate` would emit:
/// model family, (N, K), the DerivedRates, and the branching
/// probabilities / transparencies — with every field the generator
/// provably ignores for this family masked to a canonical value. Two
/// blocks with equal signatures generate bit-identical chains (same
/// states, rewards, and transition rates); editing a parameter — or a
/// global — that does not reach a block's rates leaves its signature
/// unchanged, which is what makes incremental rebuilds and global-sweep
/// reuse precise. The masking rules are documented in docs/caching.md
/// and asserted by cache_test.cpp.
cache::Signature chain_signature(const spec::BlockSpec& block,
                                 const spec::GlobalParams& globals,
                                 const GenerationOptions& options = {});

}  // namespace rascad::mg
