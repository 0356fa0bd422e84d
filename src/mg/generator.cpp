#include "mg/generator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "markov/steady_state.hpp"

namespace rascad::mg {

using markov::StateIndex;
using semimarkov::SmpBuilder;
using spec::BlockSpec;
using spec::GlobalParams;
using spec::RedundancyMode;
using spec::Transparency;

namespace {

constexpr double kUp = 1.0;
constexpr double kDown = 0.0;

/// The state families of the generated chains, in kFamilyNames order. A
/// state is named by its family, followed by its level for the families
/// that repeat per degradation level.
enum class Family : std::uint32_t {
  kOk, kPF, kLatent, kAR, kSPF, kTF, kSE, kReint, kLogisticWait, kRepair,
  kServiceError, kDegraded, kStandbyDown, kBothDown, kFailover,
  kFailoverStuck, kTFExposed, kFailback, kTFDegraded,
};

constexpr const char* kFamilyNames[] = {
    "Ok",           "PF",       "Latent",      "AR",
    "SPF",          "TF",       "SE",          "Reint",
    "LogisticWait", "Repair",   "ServiceError", "Degraded",
    "StandbyDown",  "BothDown", "Failover",    "FailoverStuck",
    "TFExposed",    "Failback", "TFDegraded",
};

/// The level of a state named by its family alone.
constexpr std::uint32_t kNoLevel = std::numeric_limits<std::uint32_t>::max();

/// An arc that ends a scheduled dwell: the state's dwell of `delay_h`
/// hours ends along arc `arc` with probability `p`.
struct Dwell {
  std::uint32_t arc;
  double delay_h;
  double p;
};

/// One generate's control flow, recorded: each state as a tag (family and
/// level) and a reward, each arc as its ends and rate, in insertion order.
/// Tags, rewards and ends are the chain's structure; the rates are the
/// values of one point, and so are the dwells, which only the semi-Markov
/// refinement reads: its tape keeps them, and generate's, on the hot path
/// of every sweep, skips them. generate and generate_smp each reuse one
/// tape per thread.
struct Tape {
  std::vector<std::uint64_t> tags;     // family << 32 | level
  std::vector<std::uint64_t> rewards;  // bit patterns
  std::vector<std::uint64_t> ends;     // from << 32 | to
  std::vector<double> rates;
  std::vector<Dwell> dwells;           // in arc order, if keep_dwells
  bool keep_dwells = false;
  robust::CancelToken cancel;

  void start(const robust::CancelToken& token) {
    tags.clear();
    rewards.clear();
    ends.clear();
    rates.clear();
    dwells.clear();
    cancel = token;
  }

  /// Adds a state; returns its index. Polls the stop token at the first
  /// state and every markov::kCancelCheckInterval states after it. The
  /// poll only throws, so an uncancelled run records the same tape.
  StateIndex add_state(Family family, double reward,
                       std::uint32_t level = kNoLevel) {
    const std::size_t n = tags.size();
    if (n % markov::kCancelCheckInterval == 0) {
      robust::throw_if_stopped(cancel, "mg::generate", n);
    }
    if (n >= kNoLevel) {
      throw std::length_error("generate: state index exceeds 32 bits");
    }
    tags.push_back(std::uint64_t{static_cast<std::uint32_t>(family)} << 32 |
                   level);
    rewards.push_back(std::bit_cast<std::uint64_t>(reward));
    return n;
  }

  /// Adds an arc, with CtmcBuilder::add_transition's checks.
  void add_transition(StateIndex from, StateIndex to, double rate) {
    if (from >= tags.size() || to >= tags.size()) {
      throw std::out_of_range("generate: transition endpoint out of range");
    }
    if (from == to) {
      throw std::invalid_argument("generate: self-loops are not allowed");
    }
    if (!(rate > 0.0)) {
      throw std::invalid_argument("generate: rate must be positive");
    }
    ends.push_back(std::uint64_t{from} << 32 | to);
    rates.push_back(rate);
  }

  /// Adds an arc that ends a scheduled dwell of `delay_h` hours with
  /// probability `p`. The chain sees it as the exponential rate
  /// (1 / delay_h) * p; generate_smp reads the delay and p. Inlined, so a
  /// loop's 1 / delay_h folds into the reciprocal its guard computes.
  [[gnu::always_inline]] void add_dwell(StateIndex from, StateIndex to,
                                        double delay_h, double p) {
    add_transition(from, to, (1.0 / delay_h) * p);
    if (keep_dwells) {
      dwells.push_back(
          {static_cast<std::uint32_t>(rates.size() - 1), delay_h, p});
    }
  }
};

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/// Everything a tape's pattern determines, recorded once: the state table
/// (names formatted here only), the sparsity pattern of Q, and the entry of
/// Q each arc and each row's diagonal lands in. Immutable; every chain of
/// the structure shares its state table.
struct ChainStructure {
  // The pattern it was recorded from, which is its memo key.
  std::vector<std::uint64_t> tags;
  std::vector<std::uint64_t> rewards;
  std::vector<std::uint64_t> ends;

  std::shared_ptr<const markov::StateTable> states;
  linalg::CsrMatrix pattern;             // Q's pattern; its values unused
  std::vector<std::uint32_t> arc_slot;   // arc k's entry of Q
  std::vector<std::uint32_t> diag_slot;  // row i's diagonal, or kNoSlot
};

std::shared_ptr<const ChainStructure> record(const Tape& tape) {
  auto s = std::make_shared<ChainStructure>();
  s->tags = tape.tags;
  s->rewards = tape.rewards;
  s->ends = tape.ends;
  const std::size_t n = tape.tags.size();

  markov::StateTable table;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = kFamilyNames[tape.tags[i] >> 32];
    const auto level = static_cast<std::uint32_t>(tape.tags[i]);
    if (level != kNoLevel) name += std::to_string(level);
    table.add(std::move(name), std::bit_cast<double>(tape.rewards[i]));
  }
  s->states = std::make_shared<const markov::StateTable>(std::move(table));

  // Row buckets as CtmcBuilder::build forms them: a row's arc targets, then
  // its diagonal if it has an arc. Sorted and deduplicated, they are the
  // pattern of Q.
  std::vector<std::uint32_t> bucket(n + 1, 0);
  for (const std::uint64_t e : tape.ends) ++bucket[(e >> 32) + 1];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t arcs = bucket[i + 1];
    bucket[i + 1] = bucket[i] + arcs + (arcs > 0 ? 1 : 0);
  }
  std::vector<std::uint32_t> next(bucket.begin(), bucket.end() - 1);
  std::vector<std::uint32_t> cols(bucket[n]);
  for (const std::uint64_t e : tape.ends) {
    cols[next[e >> 32]++] = static_cast<std::uint32_t>(e);
  }
  std::vector<std::uint32_t> row_ptr(n + 1, 0);
  std::vector<std::uint32_t> col_idx;
  for (std::size_t i = 0; i < n; ++i) {
    if (next[i] != bucket[i + 1]) cols[next[i]] = static_cast<std::uint32_t>(i);
    const auto first = cols.begin() + bucket[i];
    const auto last = cols.begin() + bucket[i + 1];
    std::sort(first, last);
    col_idx.insert(col_idx.end(), first, std::unique(first, last));
    row_ptr[i + 1] = static_cast<std::uint32_t>(col_idx.size());
  }

  const auto slot = [&](std::size_t row, std::uint32_t col) {
    const auto first = col_idx.begin() + row_ptr[row];
    const auto last = col_idx.begin() + row_ptr[row + 1];
    return static_cast<std::uint32_t>(std::lower_bound(first, last, col) -
                                      col_idx.begin());
  };
  s->arc_slot.reserve(tape.ends.size());
  for (const std::uint64_t e : tape.ends) {
    s->arc_slot.push_back(slot(e >> 32, static_cast<std::uint32_t>(e)));
  }
  s->diag_slot.assign(n, kNoSlot);
  for (std::size_t i = 0; i < n; ++i) {
    if (bucket[i + 1] != bucket[i]) {
      s->diag_slot[i] = slot(i, static_cast<std::uint32_t>(i));
    }
  }
  const std::size_t nnz = col_idx.size();
  s->pattern = linalg::CsrMatrix::from_rows(n, std::move(row_ptr),
                                            std::move(col_idx),
                                            std::vector<double>(nnz, 1.0));
  return s;
}

/// Structures a thread remembers. Chains repeat a handful of structures
/// (the block families of a system, the one block of a sweep), and a
/// structure of the 333-state sweep block holds about 55 KB.
constexpr std::size_t kMemoSlots = 8;

/// The structure of the tape's chain, recorded on the first sight of its
/// pattern and remembered per thread. An entry is found by comparing its
/// whole pattern with the tape's, element by element (no hash), so a chain
/// is only ever filled into the structure recorded from its own pattern.
const ChainStructure& structure_of(const Tape& tape) {
  struct Memo {
    std::array<std::shared_ptr<const ChainStructure>, kMemoSlots> slots;
    std::size_t next = 0;  // the slot the next miss refills
  };
  thread_local Memo memo;
  for (const auto& entry : memo.slots) {
    if (entry && entry->tags == tape.tags && entry->rewards == tape.rewards &&
        entry->ends == tape.ends) {
      return *entry;
    }
  }
  std::shared_ptr<const ChainStructure>& entry = memo.slots[memo.next];
  memo.next = (memo.next + 1) % kMemoSlots;
  // Invalidate first: a throw while recording must leave the slot empty,
  // not holding the structure of another pattern.
  entry.reset();
  entry = record(tape);
  return *entry;
}

/// The chain of the tape: its rates scattered into the structure's
/// pattern in arc order, so repeated arcs sum in insertion order, and
/// each diagonal the negated sum of its row's rates in arc order. These
/// are CtmcBuilder::build's sums in its order, and none is zero (every
/// rate is positive), so Q has the bits from_rows would give it.
markov::Ctmc fill(const ChainStructure& s, const Tape& tape) {
  const std::size_t n = s.diag_slot.size();
  std::vector<double> values(s.pattern.nnz(), 0.0);
  std::vector<double> exit(n, 0.0);
  for (std::size_t k = 0; k < tape.rates.size(); ++k) {
    values[s.arc_slot[k]] += tape.rates[k];
    exit[tape.ends[k] >> 32] += tape.rates[k];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (s.diag_slot[i] != kNoSlot) values[s.diag_slot[i]] = -exit[i];
  }
  return markov::Ctmc(s.states, s.pattern.with_values(std::move(values)));
}

/// Generator for one symmetric redundant block (Types 1-4). The chain
/// layout follows DESIGN.md Section 4; every state family is created only
/// when the parameters that feed it are active, so degenerate parameter
/// settings produce the smallest equivalent chain.
class RedundantChainBuilder {
 public:
  RedundantChainBuilder(Tape& tape, const BlockSpec& block,
                        const DerivedRates& d, RewardKind reward)
      : tape_(tape),
        block_(block),
        d_(d),
        reward_(reward),
        levels_(block.quantity - block.min_quantity),
        transparent_recovery_(block.recovery == Transparency::kTransparent),
        transparent_repair_(block.repair == Transparency::kTransparent),
        has_perm_(d.lambda_p > 0.0),
        has_trans_(d.lambda_t > 0.0),
        has_latent_(has_perm_ && block.p_latent_fault > 0.0),
        has_spf_(block.p_spf > 0.0),
        imperfect_(has_perm_ && block.p_correct_diagnosis < 1.0) {}

  /// Records the chain; returns its initial (fully-up) state.
  StateIndex record() {
    create_states();
    add_failure_transitions();
    add_recovery_transitions();
    add_repair_transitions();
    return pf_[0];
  }

 private:
  /// Reward of a level-i up state: 1 for availability models, remaining
  /// capacity fraction for performability models.
  double level_reward(unsigned i) const {
    if (reward_ == RewardKind::kAvailability) return kUp;
    const double n = static_cast<double>(block_.quantity);
    return (n - static_cast<double>(i)) / n;
  }

  void create_states() {
    const unsigned m = levels_;
    pf_.resize(m + 1);
    pf_[0] = tape_.add_state(Family::kOk, kUp);
    for (unsigned i = 1; i <= m; ++i) {
      pf_[i] = tape_.add_state(Family::kPF, level_reward(i), i);
    }
    if (has_perm_) {
      pf_down_ = tape_.add_state(Family::kPF, kDown, m + 1);
    }
    if (has_latent_) {
      latent_.assign(m + 1, 0);
      for (unsigned i = 1; i <= m; ++i) {
        latent_[i] =
            tape_.add_state(Family::kLatent, level_reward(i), i);
      }
    }
    if (has_perm_ && !transparent_recovery_) {
      ar_.assign(m + 1, 0);
      for (unsigned i = 1; i <= m; ++i) {
        ar_[i] = tape_.add_state(Family::kAR, kDown, i);
      }
    }
    if (has_spf_) {
      spf_.assign(m + 1, 0);
      for (unsigned i = 1; i <= m; ++i) {
        spf_[i] = tape_.add_state(Family::kSPF, kDown, i);
      }
    }
    if (has_trans_ && !transparent_recovery_) {
      tf_.assign(m + 1, 0);
      for (unsigned i = 1; i <= m; ++i) {
        tf_[i] = tape_.add_state(Family::kTF, kDown, i);
      }
    }
    if (has_trans_) {
      tf_down_ = tape_.add_state(Family::kTF, kDown, m + 1);
    }
    if (imperfect_) {
      se_.assign(m + 1, 0);
      for (unsigned i = 1; i <= m; ++i) {
        se_[i] = tape_.add_state(Family::kSE, kDown, i);
      }
      se_down_ = tape_.add_state(Family::kSE, kDown, m + 1);
    }
    if (has_perm_ && !transparent_repair_) {
      reint_.assign(m + 1, 0);
      for (unsigned i = 1; i <= m; ++i) {
        reint_[i] = tape_.add_state(Family::kReint, kDown, i);
      }
    }
  }

  /// Routes a *detected* permanent fault occurring at level `i` (i < M):
  /// nontransparent recovery dwells in AR(i+1); transparent recovery
  /// branches instantly between the next level and its SPF state.
  void route_detected_fault(StateIndex from, unsigned i, double rate) {
    if (transparent_recovery_) {
      const double p_spf = has_spf_ ? block_.p_spf : 0.0;
      if (rate * (1.0 - p_spf) > 0.0) {
        tape_.add_transition(from, pf_[i + 1], rate * (1.0 - p_spf));
      }
      if (has_spf_ && rate * p_spf > 0.0) {
        tape_.add_transition(from, spf_[i + 1], rate * p_spf);
      }
    } else if (rate > 0.0) {
      // p_latent_fault = 1 leaves no detected faults; the AR states are
      // still entered through latent detection.
      tape_.add_transition(from, ar_[i + 1], rate);
    }
  }

  void add_failure_transitions() {
    const unsigned m = levels_;
    const unsigned n = block_.quantity;
    const double plf = has_latent_ ? block_.p_latent_fault : 0.0;

    for (unsigned i = 0; i <= m; ++i) {
      const double good = static_cast<double>(n - i);
      const double perm_rate = good * d_.lambda_p;
      const double trans_rate = good * d_.lambda_t;

      // Permanent faults from the detected-degraded level i.
      if (has_perm_) {
        if (i == m) {
          // No redundancy left: the block goes down regardless of
          // detection (paper: PF1 -> PF2 in Figure 4).
          tape_.add_transition(pf_[i], pf_down_, perm_rate);
        } else {
          route_detected_fault(pf_[i], i, perm_rate * (1.0 - plf));
          if (has_latent_) {
            tape_.add_transition(pf_[i], latent_[i + 1], perm_rate * plf);
          }
        }
      }

      // Transient faults from level i.
      if (has_trans_) {
        if (i == m) {
          tape_.add_transition(pf_[i], tf_down_, trans_rate);
        } else if (!transparent_recovery_) {
          tape_.add_transition(pf_[i], tf_[i + 1], trans_rate);
        } else if (has_spf_) {
          // Transparent recovery masks the transient except for the
          // data-corruption branch that costs a redundancy level.
          tape_.add_transition(pf_[i], spf_[i + 1],
                                  trans_rate * block_.p_spf);
        }
      }
    }

    // Faults striking while a latent fault is outstanding.
    if (has_latent_) {
      for (unsigned i = 1; i <= m; ++i) {
        const double good = static_cast<double>(n - i);
        const double perm_rate = good * d_.lambda_p;
        const double trans_rate = good * d_.lambda_t;
        if (i == m) {
          // Paper: Latent1 -> PF2 / TF2 for N=2, K=1.
          tape_.add_transition(latent_[i], pf_down_, perm_rate);
          if (has_trans_) {
            tape_.add_transition(latent_[i], tf_down_, trans_rate);
          }
        } else {
          route_detected_fault(latent_[i], i, perm_rate * (1.0 - plf));
          tape_.add_transition(latent_[i], latent_[i + 1],
                                  perm_rate * plf);
          if (has_trans_) {
            if (!transparent_recovery_) {
              tape_.add_transition(latent_[i], tf_[i + 1], trans_rate);
            } else if (has_spf_) {
              tape_.add_transition(latent_[i], spf_[i + 1],
                                      trans_rate * block_.p_spf);
            }
          }
        }
      }
    }
  }

  void add_recovery_transitions() {
    const unsigned m = levels_;
    const double p_spf = has_spf_ ? block_.p_spf : 0.0;

    // AR dwell states (nontransparent recovery): success reaches the next
    // degraded level, failure is the single point of failure.
    if (has_perm_ && !transparent_recovery_) {
      const double ar_h = d_.ar_time_h;
      const double ar_rate = 1.0 / ar_h;
      for (unsigned i = 1; i <= m; ++i) {
        if (ar_rate * (1.0 - p_spf) > 0.0) {
          tape_.add_dwell(ar_[i], pf_[i], ar_h, 1.0 - p_spf);
        }
        if (has_spf_) tape_.add_dwell(ar_[i], spf_[i], ar_h, p_spf);
      }
    }

    // Latent-fault detection after MTTDLF (paper: Latent1 -> AR1).
    if (has_latent_) {
      const double detect = 1.0 / d_.mttdlf_h;
      for (unsigned i = 1; i <= m; ++i) {
        if (!transparent_recovery_) {
          tape_.add_transition(latent_[i], ar_[i], detect);
        } else {
          if (detect * (1.0 - p_spf) > 0.0) {
            tape_.add_transition(latent_[i], pf_[i],
                                    detect * (1.0 - p_spf));
          }
          if (has_spf_) {
            tape_.add_transition(latent_[i], spf_[i], detect * p_spf);
          }
        }
      }
    }

    // SPF dwell, then the system continues at the degraded level.
    if (has_spf_) {
      for (unsigned i = 1; i <= m; ++i) {
        tape_.add_dwell(spf_[i], pf_[i], d_.t_spf_h, 1.0);
      }
    }

    // Transient recovery by reboot (nontransparent): success clears the
    // fault back to the originating level; data corruption costs a level.
    if (has_trans_) {
      const double boot_h = d_.t_boot_h;
      const double boot = 1.0 / boot_h;
      if (!transparent_recovery_) {
        for (unsigned i = 1; i <= m; ++i) {
          if (boot * (1.0 - p_spf) > 0.0) {
            tape_.add_dwell(tf_[i], pf_[i - 1], boot_h, 1.0 - p_spf);
          }
          if (has_spf_) tape_.add_dwell(tf_[i], spf_[i], boot_h, p_spf);
        }
      }
      // Bottom transient state exists in every type (M >= 1 here).
      if (boot * (1.0 - p_spf) > 0.0) {
        tape_.add_dwell(tf_down_, pf_[m], boot_h, 1.0 - p_spf);
      }
      if (has_spf_) tape_.add_dwell(tf_down_, spf_[m], boot_h, p_spf);
    }
  }

  void add_repair_transitions() {
    if (!has_perm_) return;
    const unsigned m = levels_;
    const double pcd = block_.p_correct_diagnosis;
    const double deferred_h = d_.deferred_repair_h();
    const double immediate_h = d_.immediate_repair_h();
    const double deferred = 1.0 / deferred_h;
    const double immediate = 1.0 / immediate_h;

    // Deferred repair of one component per service action from each
    // degraded level (paper: PF1 -> Ok after MTTM + Tresp).
    for (unsigned i = 1; i <= m; ++i) {
      const StateIndex success_target =
          transparent_repair_ ? pf_[i - 1] : reint_[i];
      if (deferred * pcd > 0.0) {
        tape_.add_dwell(pf_[i], success_target, deferred_h, pcd);
      }
      if (imperfect_) tape_.add_dwell(pf_[i], se_[i], deferred_h, 1.0 - pcd);
      // Repair of the older, already-detected faults while the newest
      // fault is still latent (only meaningful at depth >= 2).
      if (has_latent_ && i >= 2) {
        if (deferred * pcd > 0.0) {
          tape_.add_dwell(latent_[i], latent_[i - 1], deferred_h, pcd);
        }
        if (imperfect_) {
          tape_.add_dwell(latent_[i], se_[i], deferred_h, 1.0 - pcd);
        }
      }
    }

    // Nontransparent repair: reintegration restart downtime.
    if (!transparent_repair_) {
      for (unsigned i = 1; i <= m; ++i) {
        tape_.add_dwell(reint_[i], pf_[i - 1], d_.reint_h, 1.0);
      }
    }

    // Service error: incorrect diagnosis pulled the wrong component; the
    // longer MTTRFID downtime ends with the original fault fixed.
    if (imperfect_) {
      const double out = 1.0 / d_.mttrfid_h;
      for (unsigned i = 1; i <= m; ++i) {
        tape_.add_transition(se_[i], pf_[i - 1], out);
      }
      tape_.add_transition(se_down_, pf_[m], out);
    }

    // Bottom level: immediate service call (paper: "In PF2, an immediate
    // service call is placed").
    if (immediate * pcd > 0.0) {
      tape_.add_dwell(pf_down_, pf_[m], immediate_h, pcd);
    }
    if (imperfect_) {
      tape_.add_dwell(pf_down_, se_down_, immediate_h, 1.0 - pcd);
    }
  }

  Tape& tape_;
  const BlockSpec& block_;
  const DerivedRates& d_;
  const RewardKind reward_;
  const unsigned levels_;  // M = N - K
  const bool transparent_recovery_;
  const bool transparent_repair_;
  const bool has_perm_;
  const bool has_trans_;
  const bool has_latent_;
  const bool has_spf_;
  const bool imperfect_;

  std::vector<StateIndex> pf_;      // pf_[0] == Ok
  std::vector<StateIndex> latent_;  // valid 1..M when has_latent_
  std::vector<StateIndex> ar_;      // valid 1..M, nontransparent recovery
  std::vector<StateIndex> spf_;     // valid 1..M when has_spf_
  std::vector<StateIndex> tf_;      // valid 1..M, nontransparent recovery
  std::vector<StateIndex> se_;      // valid 1..M when imperfect_
  std::vector<StateIndex> reint_;   // valid 1..M, nontransparent repair
  StateIndex pf_down_ = 0;
  StateIndex tf_down_ = 0;
  StateIndex se_down_ = 0;
};

/// Redundant block with only transient faults (no permanent-fault level
/// structure): transparent recovery masks transients entirely except the
/// SPF branch; nontransparent recovery costs a reboot per transient.
StateIndex record_transient_only_redundant(Tape& b, const BlockSpec& block,
                                          const DerivedRates& d) {
  const StateIndex ok = b.add_state(Family::kOk, kUp);
  const double rate = static_cast<double>(block.quantity) * d.lambda_t;
  const bool has_spf = block.p_spf > 0.0;
  StateIndex spf = 0;
  if (has_spf) {
    spf = b.add_state(Family::kSPF, kDown, 1);
    b.add_dwell(spf, ok, d.t_spf_h, 1.0);
  }
  if (block.recovery == Transparency::kTransparent) {
    if (has_spf) b.add_transition(ok, spf, rate * block.p_spf);
  } else {
    const StateIndex tf = b.add_state(Family::kTF, kDown, 1);
    b.add_transition(ok, tf, rate);
    const double p_spf = has_spf ? block.p_spf : 0.0;
    if ((1.0 / d.t_boot_h) * (1.0 - p_spf) > 0.0) {
      b.add_dwell(tf, ok, d.t_boot_h, 1.0 - p_spf);
    }
    if (has_spf) b.add_dwell(tf, spf, d.t_boot_h, p_spf);
  }
  return ok;
}

/// Markov Model Type 0: no redundancy (paper Figure 3). A permanent fault
/// downs the block and walks the logistic -> repair -> (service error)
/// pipeline; a transient fault costs a reboot.
StateIndex record_type0(Tape& b, const BlockSpec& block,
                        const DerivedRates& d) {
  const StateIndex ok = b.add_state(Family::kOk, kUp);
  const double n = static_cast<double>(block.quantity);
  const bool imperfect = block.p_correct_diagnosis < 1.0;

  if (d.lambda_p > 0.0) {
    const double pcd = block.p_correct_diagnosis;
    StateIndex se = 0;
    if (imperfect) se = b.add_state(Family::kServiceError, kDown);

    // Stage the downtime through the positive-duration phases only: the
    // fault enters the first, and each phase's dwell ends in the next.
    StateIndex stage = ok;
    double stage_h = 0.0;  // the dwell of `stage` once it is a down phase
    const auto enter = [&](Family phase, double dwell_h) {
      const StateIndex next = b.add_state(phase, kDown);
      if (stage == ok) {
        b.add_transition(ok, next, n * d.lambda_p);
      } else {
        b.add_dwell(stage, next, stage_h, 1.0);
      }
      stage = next;
      stage_h = dwell_h;
    };
    if (d.t_resp_h > 0.0) enter(Family::kLogisticWait, d.t_resp_h);
    if (d.mttr_h > 0.0) enter(Family::kRepair, d.mttr_h);
    // `stage` is the last down phase; branch on diagnosis quality.
    if ((1.0 / stage_h) * pcd > 0.0) b.add_dwell(stage, ok, stage_h, pcd);
    if (imperfect) {
      b.add_dwell(stage, se, stage_h, 1.0 - pcd);
      b.add_transition(se, ok, 1.0 / d.mttrfid_h);
    }
  }
  if (d.lambda_t > 0.0) {
    const StateIndex tf = b.add_state(Family::kTF, kDown);
    b.add_transition(ok, tf, n * d.lambda_t);
    b.add_dwell(tf, ok, d.t_boot_h, 1.0);
  }
  return ok;
}

/// Primary/standby cluster (extension; the paper lists this architecture
/// as work in progress). Asymmetric two-node failover chain.
StateIndex record_primary_standby(Tape& b, const BlockSpec& block,
                                  const DerivedRates& d) {
  const double fault_rate = d.lambda_p + d.lambda_t;
  if (!(fault_rate > 0.0)) {
    throw std::invalid_argument(
        "generate: primary_standby block has no failure behaviour");
  }
  const double pcd = block.p_correct_diagnosis;
  const bool has_perm = d.lambda_p > 0.0;
  const bool imperfect = has_perm && pcd < 1.0;
  const bool transparent_repair = block.repair == Transparency::kTransparent;

  const StateIndex ok = b.add_state(Family::kOk, kUp);
  const StateIndex degraded = b.add_state(Family::kDegraded, kUp);
  StateIndex standby_down = 0;
  StateIndex both_down = 0;
  if (has_perm) {
    standby_down = b.add_state(Family::kStandbyDown, kUp);
    both_down = b.add_state(Family::kBothDown, kDown);
  }

  // Primary failure triggers failover.
  if (d.failover_h > 0.0) {
    const StateIndex failover = b.add_state(Family::kFailover, kDown);
    b.add_transition(ok, failover, fault_rate);
    const double out = 1.0 / d.failover_h;
    const double p_fo = block.p_failover;
    if (out * p_fo > 0.0) b.add_transition(failover, degraded, out * p_fo);
    if (p_fo < 1.0) {
      const StateIndex stuck = b.add_state(Family::kFailoverStuck, kDown);
      b.add_transition(failover, stuck, out * (1.0 - p_fo));
      const double dwell =
          d.t_spf_h > 0.0 ? d.t_spf_h : std::max(d.t_boot_h, 1.0 / 60.0);
      b.add_transition(stuck, degraded, 1.0 / dwell);
    }
  } else {
    b.add_transition(ok, degraded, fault_rate);
  }

  // Standby permanent failure while healthy: no service interruption,
  // deferred fix. (Standby transients self-clear on the standby's own
  // reboot with no service impact, so they do not appear here.)
  StateIndex se = 0;
  if (imperfect) se = b.add_state(Family::kServiceError, kDown);

  if (has_perm) {
    const double deferred = 1.0 / d.deferred_repair_h();
    const double immediate = 1.0 / d.immediate_repair_h();
    b.add_transition(ok, standby_down, d.lambda_p);
    if (deferred * pcd > 0.0) {
      b.add_transition(standby_down, ok, deferred * pcd);
    }
    if (imperfect) {
      b.add_transition(standby_down, se, deferred * (1.0 - pcd));
    }
    // Primary permanent fault with no standby: both nodes dead.
    b.add_transition(standby_down, both_down, d.lambda_p);
    b.add_transition(both_down, degraded, immediate);

    // Primary transient while the standby is down costs a reboot.
    if (d.lambda_t > 0.0 && d.t_boot_h > 0.0) {
      const StateIndex tf_exposed = b.add_state(Family::kTFExposed, kDown);
      b.add_transition(standby_down, tf_exposed, d.lambda_t);
      b.add_transition(tf_exposed, standby_down, 1.0 / d.t_boot_h);
    }

    // Repair of the failed primary while running on the standby.
    StateIndex repair_target = ok;
    if (!transparent_repair && d.reint_h > 0.0) {
      const StateIndex failback = b.add_state(Family::kFailback, kDown);
      b.add_transition(failback, ok, 1.0 / d.reint_h);
      repair_target = failback;
    }
    if (deferred * pcd > 0.0) {
      b.add_transition(degraded, repair_target, deferred * pcd);
    }
    if (imperfect) {
      b.add_transition(degraded, se, deferred * (1.0 - pcd));
      b.add_transition(se, ok, 1.0 / d.mttrfid_h);
    }
    // Permanent failure of the lone active node: both nodes dead.
    b.add_transition(degraded, both_down, d.lambda_p);
  } else {
    // Transient-only cluster: the transiently-failed primary recovers with
    // its own reboot, after which service fails back.
    b.add_transition(degraded, ok, 1.0 / d.t_boot_h);
  }

  // Transient on the lone active node costs a reboot.
  if (has_perm && d.lambda_t > 0.0 && d.t_boot_h > 0.0) {
    const StateIndex tf = b.add_state(Family::kTFDegraded, kDown);
    b.add_transition(degraded, tf, d.lambda_t);
    b.add_transition(tf, degraded, 1.0 / d.t_boot_h);
  }
  return ok;
}

/// Records a redundant symmetric chain (Types 1-4), after the parameter
/// preconditions validation does not cover.
StateIndex record_redundant(Tape& tape, const BlockSpec& block,
                            const DerivedRates& d, RewardKind reward) {
  if (block.recovery == Transparency::kNontransparent && d.lambda_p > 0.0 &&
      d.ar_time_h <= 0.0) {
    throw std::invalid_argument(
        "generate: nontransparent recovery requires positive ar_time");
  }
  if (block.repair == Transparency::kNontransparent && d.lambda_p > 0.0 &&
      d.reint_h <= 0.0) {
    throw std::invalid_argument(
        "generate: nontransparent repair requires positive "
        "reintegration_time");
  }
  if (block.p_latent_fault > 0.0 && d.lambda_p > 0.0 && d.mttdlf_h <= 0.0) {
    throw std::invalid_argument(
        "generate: latent faults require positive mttdlf");
  }
  if (block.p_spf > 0.0 && d.t_spf_h <= 0.0) {
    throw std::invalid_argument("generate: p_spf > 0 requires positive t_spf");
  }
  if (d.lambda_p <= 0.0) {
    return record_transient_only_redundant(tape, block, d);
  }
  return RedundantChainBuilder(tape, block, d, reward).record();
}

/// generate's prelude, which generate_smp shares: validates the block, then
/// records its chain on `tape`. Returns the initial (fully-up) state.
StateIndex record_block(Tape& tape, const BlockSpec& block,
                        const GlobalParams& globals, RewardKind reward,
                        const robust::CancelToken& cancel) {
  if (!block.has_own_failures()) {
    throw std::invalid_argument("generate: block '" + block.name +
                                "' has no failure parameters");
  }
  if (block.quantity == 0 || block.min_quantity == 0 ||
      block.min_quantity > block.quantity) {
    throw std::invalid_argument("generate: block '" + block.name +
                                "' has inconsistent quantities");
  }
  const DerivedRates d = derive_rates(block, globals);
  if (d.lambda_t > 0.0 && d.t_boot_h <= 0.0) {
    throw std::invalid_argument(
        "generate: transient faults require a positive reboot_time");
  }
  if (d.lambda_p > 0.0 && d.immediate_repair_h() <= 0.0) {
    throw std::invalid_argument(
        "generate: permanent faults require MTTR and/or service response");
  }
  tape.start(cancel);
  switch (classify(block)) {
    case MarkovModelType::kType0:
      return record_type0(tape, block, d);
    case MarkovModelType::kPrimaryStandby:
      return record_primary_standby(tape, block, d);
    default:
      return record_redundant(tape, block, d, reward);
  }
}

/// One branch of a scheduled dwell: its target and probability.
struct Branch {
  std::size_t target;
  double probability;
};

/// Sets a state of the semi-Markov refinement whose sojourn is
/// min(deterministic D, Exp(total exponential rate)): `det_branches` fire
/// if the deterministic event wins, `exp_arcs` (probabilities proportional
/// to their rates) otherwise. A state without branches is exponential, one
/// without exponential arcs a plain dwell of D. The sojourn is stored as a
/// point mass at its exact mean; only the mean enters the steady-state
/// ratio formula.
void set_race(SmpBuilder& b, std::size_t state, double det_delay,
              const std::vector<Branch>& det_branches,
              const std::vector<std::pair<std::size_t, double>>& exp_arcs) {
  double total_rate = 0.0;
  for (const auto& [target, rate] : exp_arcs) total_rate += rate;

  if (det_branches.empty()) {
    if (total_rate <= 0.0) {
      throw std::invalid_argument("generate_smp: state with no exits");
    }
    b.set_exponential(state, exp_arcs);
    return;
  }
  if (total_rate <= 0.0) {
    b.set_sojourn(state, dist::deterministic(det_delay));
    for (const Branch& br : det_branches) {
      b.add_transition(state, br.target, br.probability);
    }
    return;
  }
  const double p_det = std::exp(-total_rate * det_delay);
  const double mean = (1.0 - p_det) / total_rate;
  b.set_sojourn(state, dist::deterministic(mean));
  for (const Branch& br : det_branches) {
    if (p_det * br.probability > 0.0) {
      b.add_transition(state, br.target, p_det * br.probability);
    }
  }
  for (const auto& [target, rate] : exp_arcs) {
    const double p = (1.0 - p_det) * rate / total_rate;
    if (p > 0.0) b.add_transition(state, target, p);
  }
}

}  // namespace

std::string to_string(MarkovModelType type) {
  switch (type) {
    case MarkovModelType::kType0:
      return "Type 0";
    case MarkovModelType::kType1:
      return "Type 1 (transparent recovery, transparent repair)";
    case MarkovModelType::kType2:
      return "Type 2 (transparent recovery, nontransparent repair)";
    case MarkovModelType::kType3:
      return "Type 3 (nontransparent recovery, transparent repair)";
    case MarkovModelType::kType4:
      return "Type 4 (nontransparent recovery, nontransparent repair)";
    case MarkovModelType::kPrimaryStandby:
      return "Primary/Standby (extension)";
  }
  return "unknown";
}

MarkovModelType classify(const spec::BlockSpec& block) {
  if (block.mode == RedundancyMode::kPrimaryStandby) {
    return MarkovModelType::kPrimaryStandby;
  }
  if (!block.redundant()) return MarkovModelType::kType0;
  const bool tr = block.recovery == Transparency::kTransparent;
  const bool tp = block.repair == Transparency::kTransparent;
  if (tr && tp) return MarkovModelType::kType1;
  if (tr && !tp) return MarkovModelType::kType2;
  if (!tr && tp) return MarkovModelType::kType3;
  return MarkovModelType::kType4;
}

DerivedRates derive_rates(const spec::BlockSpec& block,
                          const spec::GlobalParams& globals) {
  DerivedRates d;
  if (block.mtbf_h > 0.0) d.lambda_p = 1.0 / block.mtbf_h;
  d.lambda_t = block.transient_fit * 1e-9;
  d.mttr_h = block.mttr_total_h();
  d.t_resp_h = block.service_response_h;
  d.mttm_h = globals.mttm_h;
  d.mttrfid_h = globals.mttrfid_h;
  d.t_boot_h = globals.reboot_time_h;
  d.ar_time_h = block.ar_time_min / 60.0;
  d.t_spf_h = block.t_spf_min / 60.0;
  d.reint_h = block.reintegration_min / 60.0;
  d.mttdlf_h = block.mttdlf_h;
  d.failover_h = block.failover_time_min / 60.0;
  return d;
}

GeneratedModel generate(const spec::BlockSpec& block,
                        const spec::GlobalParams& globals,
                        const GenerationOptions& options,
                        const robust::CancelToken& cancel) {
  thread_local Tape tape;
  GeneratedModel model;
  model.initial = record_block(tape, block, globals, options.reward, cancel);
  model.type = classify(block);
  model.block_name = block.name;
  model.chain = fill(structure_of(tape), tape);
  return model;
}

semimarkov::SemiMarkovProcess generate_smp(const spec::BlockSpec& block,
                                           const spec::GlobalParams& globals) {
  if (block.mode == RedundancyMode::kPrimaryStandby) {
    throw std::invalid_argument(
        "generate_smp: primary/standby blocks are CTMC-only");
  }
  thread_local Tape tape;
  tape.keep_dwells = true;
  record_block(tape, block, globals, RewardKind::kAvailability, {});
  const std::vector<markov::StateInfo>& states =
      structure_of(tape).states->states();
  const std::size_t n = states.size();

  // Sort each state's arcs into the branches of its scheduled dwell and
  // its exponential arcs, in arc order.
  std::vector<double> delay_h(n, 0.0);
  std::vector<std::vector<Branch>> branches(n);
  std::vector<std::vector<std::pair<std::size_t, double>>> exp_arcs(n);
  auto dwell = tape.dwells.begin();
  for (std::size_t k = 0; k < tape.rates.size(); ++k) {
    const std::size_t from = tape.ends[k] >> 32;
    const std::size_t to = static_cast<std::uint32_t>(tape.ends[k]);
    if (dwell == tape.dwells.end() || dwell->arc != k) {
      exp_arcs[from].emplace_back(to, tape.rates[k]);
      continue;
    }
    if (!branches[from].empty() && delay_h[from] != dwell->delay_h) {
      throw std::logic_error("generate_smp: state '" + states[from].name +
                             "' has dwells of two lengths");
    }
    delay_h[from] = dwell->delay_h;
    branches[from].push_back({to, dwell->p});
    ++dwell;
  }

  SmpBuilder b;
  for (const markov::StateInfo& s : states) b.add_state(s.name, s.reward);
  for (std::size_t i = 0; i < n; ++i) {
    set_race(b, i, delay_h[i], branches[i], exp_arcs[i]);
  }
  return b.build();
}

double smp_availability(const spec::BlockSpec& block,
                        const spec::GlobalParams& globals) {
  return generate_smp(block, globals).steady_state_reward();
}

cache::Signature chain_signature(const spec::BlockSpec& block,
                                 const spec::GlobalParams& globals,
                                 const GenerationOptions& options) {
  const MarkovModelType type = classify(block);
  DerivedRates d = derive_rates(block, globals);
  const bool has_perm = d.lambda_p > 0.0;
  const bool has_trans = d.lambda_t > 0.0;

  double pcd = block.p_correct_diagnosis;
  double plf = block.p_latent_fault;
  double pspf = block.p_spf;
  double pfo = block.p_failover;
  bool recovery_nt = block.recovery == Transparency::kNontransparent;
  bool repair_nt = block.repair == Transparency::kNontransparent;
  unsigned n = block.quantity;
  unsigned k = block.min_quantity;
  // record_block rejects these whatever the family reads.
  const bool quantities_ok = n != 0 && k != 0 && k <= n;

  // Mask every input the generator provably ignores for this chain family
  // to a canonical value, mirroring the guards in the record_* paths
  // above; an input that only record_block's checks read keeps what they
  // test. Masking an input the family *does* read would alias two
  // different chains, so each rule here corresponds to an explicit gate in
  // the generator. Keeping an unused input costs only a missed reuse.
  // cache_test's ChainSignature.EqualKeysIffBitIdenticalChains checks
  // both: soundness on every input, missed reuse on validated specs.
  switch (type) {
    case MarkovModelType::kType0:
      // record_type0 has no redundancy structure at all.
      plf = 0.0;
      pspf = 0.0;
      pfo = 1.0;
      recovery_nt = false;
      repair_nt = false;
      d.mttm_h = 0.0;
      d.ar_time_h = 0.0;
      d.t_spf_h = 0.0;
      d.reint_h = 0.0;
      d.mttdlf_h = 0.0;
      d.failover_h = 0.0;
      if (!has_perm) {
        pcd = 1.0;
        d.mttr_h = 0.0;
        d.t_resp_h = 0.0;
      }
      if (!has_perm || pcd >= 1.0) d.mttrfid_h = 0.0;
      if (!has_trans) d.t_boot_h = 0.0;
      break;
    case MarkovModelType::kPrimaryStandby: {
      plf = 0.0;
      pspf = 0.0;
      recovery_nt = false;
      d.ar_time_h = 0.0;
      d.mttdlf_h = 0.0;
      // Tspf / Tboot feed the stuck-failover dwell only when failover can
      // get stuck; Tboot additionally feeds every transient reboot.
      const bool stuck = d.failover_h > 0.0 && pfo < 1.0;
      const bool stuck_uses_boot = stuck && d.t_spf_h <= 0.0;
      if (!stuck) d.t_spf_h = 0.0;
      if (!has_trans && !stuck_uses_boot) d.t_boot_h = 0.0;
      if (!(d.failover_h > 0.0)) pfo = 1.0;
      if (!has_perm) {
        pcd = 1.0;
        repair_nt = false;
        d.mttr_h = 0.0;
        d.t_resp_h = 0.0;
        d.mttm_h = 0.0;
        d.reint_h = 0.0;
      } else if (!repair_nt) {
        d.reint_h = 0.0;
      }
      if (!has_perm || pcd >= 1.0) d.mttrfid_h = 0.0;
      break;
    }
    default:  // symmetric redundant, Types 1-4
      pfo = 1.0;
      d.failover_h = 0.0;
      if (!has_perm) {
        // record_transient_only_redundant: Ok / SPF / TF only, whatever K.
        if (quantities_ok) k = 1;
        pcd = 1.0;
        plf = 0.0;
        repair_nt = false;
        d.mttr_h = 0.0;
        d.t_resp_h = 0.0;
        d.mttm_h = 0.0;
        d.mttrfid_h = 0.0;
        d.ar_time_h = 0.0;
        d.reint_h = 0.0;
        d.mttdlf_h = 0.0;
        if (pspf <= 0.0) d.t_spf_h = 0.0;
        if (!recovery_nt) {
          // Transparent recovery masks reboots: Tboot reaches only
          // record_block's check that it is positive.
          d.t_boot_h = d.t_boot_h <= 0.0 ? 0.0 : 1.0;
          // Without SPF the chain is the lone Ok state.
          if (pspf <= 0.0 && d.lambda_t > 0.0) {
            n = 2;
            d.lambda_t = 1.0;
          }
        }
      } else {
        if (plf <= 0.0) d.mttdlf_h = 0.0;
        if (!recovery_nt) d.ar_time_h = 0.0;
        if (!repair_nt) d.reint_h = 0.0;
        if (pspf <= 0.0) d.t_spf_h = 0.0;
        if (pcd >= 1.0) d.mttrfid_h = 0.0;
        if (!has_trans) d.t_boot_h = 0.0;
      }
      break;
  }

  cache::Signature s;
  s.append_word(static_cast<std::uint64_t>(type));
  s.append_word(n);
  s.append_word(k);
  s.append_double(d.lambda_p);
  s.append_double(d.lambda_t);
  s.append_double(d.mttr_h);
  s.append_double(d.t_resp_h);
  s.append_double(d.mttm_h);
  s.append_double(d.mttrfid_h);
  s.append_double(d.t_boot_h);
  s.append_double(d.ar_time_h);
  s.append_double(d.t_spf_h);
  s.append_double(d.reint_h);
  s.append_double(d.mttdlf_h);
  s.append_double(d.failover_h);
  s.append_double(pcd);
  s.append_double(plf);
  s.append_double(pspf);
  s.append_double(pfo);
  s.append_flag(recovery_nt);
  s.append_flag(repair_nt);
  s.append_word(static_cast<std::uint64_t>(options.reward));
  return s;
}

}  // namespace rascad::mg
