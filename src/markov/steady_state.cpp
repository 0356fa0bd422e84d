#include "markov/steady_state.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "robust/solve_error.hpp"

namespace rascad::markov {

using robust::SolveCause;
using robust::SolveError;

namespace {

/// Cooperative checkpoint of the ordering and elimination loops, every
/// kCancelCheckInterval states. Throw-only: uncancelled runs stay bitwise
/// identical.
inline void checkpoint(const robust::CancelToken& cancel, std::size_t it,
                       const char* who) {
  if (!cancel.valid()) return;
  if (it != 1 && it % kCancelCheckInterval != 0) return;
  robust::throw_if_stopped(cancel, who, it - 1);
}

/// Reverse Cuthill-McKee order of the symmetrized pattern of `w`:
/// order[k] is the state placed at position k. Each connected component is
/// swept breadth-first, neighbours by increasing degree, from the far end
/// of a first sweep, so a level-structured chain comes out with a
/// bandwidth of about one level's width. Polls `cancel` like the
/// elimination, once per kCancelCheckInterval visited states.
std::vector<std::uint32_t> rcm_order(const linalg::CsrMatrix& w,
                                     const robust::CancelToken& cancel,
                                     const char* who) {
  const std::size_t n = w.rows();
  const linalg::CsrMatrix wt = w.transposed();
  // Arcs in either direction; repeats and the diagonal are harmless.
  const auto degree = [&](std::uint32_t v) {
    return w.row(v).size + wt.row(v).size;
  };
  std::vector<std::uint32_t> mark(n, 0);  // last sweep to reach a state
  std::uint32_t epoch = 0;
  std::size_t visited = 0;
  const auto sweep = [&](std::uint32_t root, std::vector<std::uint32_t>& out) {
    const std::size_t begin = out.size();
    out.push_back(root);
    mark[root] = ++epoch;
    for (std::size_t h = begin; h < out.size(); ++h) {
      checkpoint(cancel, ++visited, who);
      const std::size_t first = out.size();
      for (const linalg::CsrMatrix* m : {&w, &wt}) {
        const auto row = m->row(out[h]);
        for (std::size_t k = 0; k < row.size; ++k) {
          if (mark[row.cols[k]] != epoch) {
            mark[row.cols[k]] = epoch;
            out.push_back(row.cols[k]);
          }
        }
      }
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return degree(a) != degree(b) ? degree(a) < degree(b)
                                                : a < b;
                });
    }
  };
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> probe;
  order.reserve(n);
  for (std::uint32_t seed = 0; seed < n; ++seed) {
    if (mark[seed] != 0) continue;
    probe.clear();
    sweep(seed, probe);
    sweep(probe.back(), order);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

/// The symbolic half of a banded GTH elimination: everything it needs that
/// depends on the sparsity pattern alone, found once per pattern. Values
/// never enter it, so an entry whose value is 0 counts as present.
struct GthPlan {
  // The pattern it was made for, which is its memo key.
  std::size_t cols = 0;
  std::vector<std::uint32_t> row_ptr;
  std::vector<std::uint32_t> col_idx;

  std::vector<std::uint32_t> order;  // order[k] is the state at position k
  std::size_t b = 0;                 // the pattern's bandwidth in that order
  // Entry k of row r at column c lands on w(pos(r), pos(c)), at band index
  // slot[k]. A diagonal entry lands on the band's diagonal, which no loop
  // reads.
  std::vector<std::size_t> slot;
  // The fill envelope. When position m is eliminated, column m above the
  // diagonal can be nonzero only in rows ifirst[m] .. m-1, and row m left
  // of the diagonal only in columns jfirst[m] .. m-1. Outside it every
  // weight stays an exact +0 throughout.
  std::vector<std::uint32_t> ifirst;
  std::vector<std::uint32_t> jfirst;
};

/// The plan of w's pattern: the reverse Cuthill-McKee order, the band
/// slot of every entry, and the envelope from one symbolic elimination,
/// which treats the envelope as dense. Eliminating m fills (i, j) for i in
/// [ifirst[m], m) and j in [jfirst[m], m), so it widens column j's upper
/// envelope to ifirst[m] and row i's lower one to jfirst[m]. O(n b).
GthPlan make_plan(const linalg::CsrMatrix& w,
                  const robust::CancelToken& cancel, const char* who) {
  const std::size_t n = w.rows();
  GthPlan plan;
  plan.order = rcm_order(w, cancel, who);
  std::vector<std::uint32_t> pos(n);
  for (std::size_t k = 0; k < n; ++k) {
    pos[plan.order[k]] = static_cast<std::uint32_t>(k);
  }
  std::vector<std::uint32_t>& ifirst = plan.ifirst;
  std::vector<std::uint32_t>& jfirst = plan.jfirst;
  ifirst.resize(n);
  std::iota(ifirst.begin(), ifirst.end(), std::uint32_t{0});
  jfirst = ifirst;
  std::size_t b = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = w.row(r);
    for (std::size_t k = 0; k < row.size; ++k) {
      const std::uint32_t p = pos[r];
      const std::uint32_t q = pos[row.cols[k]];
      if (p < q) ifirst[q] = std::min(ifirst[q], p);
      if (q < p) jfirst[p] = std::min(jfirst[p], q);
      b = std::max<std::size_t>(b, p > q ? p - q : q - p);
    }
  }
  plan.b = b;
  plan.slot.resize(w.nnz());
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t first = w.row_ptr()[r];
    const auto row = w.row(r);
    for (std::size_t k = 0; k < row.size; ++k) {
      plan.slot[first + k] = 2 * b * pos[r] + b + pos[row.cols[k]];
    }
  }
  for (std::size_t m = n; m-- > 1;) {
    for (std::size_t j = jfirst[m]; j < m; ++j) {
      ifirst[j] = std::min(ifirst[j], ifirst[m]);
    }
    for (std::size_t i = ifirst[m]; i < m; ++i) {
      jfirst[i] = std::min(jfirst[i], jfirst[m]);
    }
  }
  plan.cols = w.cols();
  plan.row_ptr = w.row_ptr();
  plan.col_idx = w.col_idx();
  return plan;
}

/// Plans a thread remembers. Chains repeat a handful of patterns (the
/// block families of a system, the one block of a sweep), and the plan of
/// the 333-state sweep block holds about 20 KB.
constexpr std::size_t kPlanSlots = 8;

/// make_plan(w), remembered per thread for the last kPlanSlots patterns it
/// planned. A sweep re-solves one pattern with new values at every point,
/// so only the first point plans. The key is the pattern itself, compared
/// element by element (no hash), so a chain is only ever solved with the
/// plan made from its own pattern. A caller shares the plan, so a later
/// miss that refills its slot cannot free it.
std::shared_ptr<const GthPlan> plan_of(const linalg::CsrMatrix& w,
                                       const robust::CancelToken& cancel,
                                       const char* who) {
  struct Memo {
    std::array<std::shared_ptr<const GthPlan>, kPlanSlots> slots;
    std::size_t next = 0;  // the slot the next miss refills
  };
  thread_local Memo memo;
  for (const auto& entry : memo.slots) {
    if (entry && entry->cols == w.cols() && entry->row_ptr == w.row_ptr() &&
        entry->col_idx == w.col_idx()) {
      return entry;
    }
  }
  std::shared_ptr<const GthPlan>& entry = memo.slots[memo.next];
  memo.next = (memo.next + 1) % kPlanSlots;
  // Invalidate first: a throw while planning must leave the slot empty,
  // not holding the plan of another pattern.
  entry.reset();
  entry = std::make_shared<const GthPlan>(make_plan(w, cancel, who));
  return entry;
}

/// A chain's off-diagonal weights in reverse Cuthill-McKee positions,
/// stored as a band: w(i, j) for |i - j| <= b lives at w[2b i + b + j].
/// Eliminating a state only touches the states within b of it, so fill-in
/// never leaves the band.
struct Band {
  std::shared_ptr<const GthPlan> plan;
  std::size_t b = 0;
  std::vector<double> w;
  double& at(std::size_t i, std::size_t j) { return w[2 * b * i + b + j]; }
};

Band band_of(const linalg::CsrMatrix& weights,
             const robust::CancelToken& cancel, const char* who) {
  const std::size_t n = weights.rows();
  if (n == 0) {
    throw SolveError(SolveCause::kInvalidInput, who, "empty chain");
  }
  Band band;
  band.plan = plan_of(weights, cancel, who);
  band.b = band.plan->b;
  try {
    band.w.assign(n * (2 * band.b + 1), 0.0);
  } catch (const std::bad_alloc&) {
    throw SolveError(SolveCause::kBudgetExceeded, who,
                     "banded workspace for " + std::to_string(n) +
                         " states at bandwidth " + std::to_string(band.b) +
                         " does not fit in memory");
  }
  const std::vector<std::size_t>& slot = band.plan->slot;
  const std::vector<double>& values = weights.values();
  for (std::size_t k = 0; k < slot.size(); ++k) band.w[slot[k]] += values[k];
  return band;
}

/// The one GTH elimination loop, shared by the stationary solve, the
/// absorbing solve and GthFactor. Eliminates positions n-1 down to `last`.
/// Eliminating m censors the chain to the surviving states: the weight
/// from i to j becomes w(i, j) + w(i, m) * w(m, j) / out(m), where out(m)
/// is m's total outflow to the survivors plus its exit (absorbing chains
/// only). An exit folds like any other weight,
///   e(i) += w(i, m) / out(m) * e(m),
/// so only non-negative terms are ever added, which is the whole point of
/// GTH. The division is folded into column m, row m is kept as it was, and
/// out(m) is returned, so the eliminated band still holds every factor a
/// right-hand side needs (fold_costs, GthFactor::solve_row) and the
/// stationary back-substitution reads
///   pi(m) = sum_{i < m} pi(i) * w(i, m).
/// Every loop runs over the plan's envelope only: a term outside it is an
/// exact +0 added to a non-negative sum, which changes no bit. `exits` is
/// indexed by position, and empty for a stationary solve. The diagonal
/// accumulates junk that is never read.
std::vector<double> gth_eliminate(Band& band, std::size_t last,
                                  std::vector<double>& exits,
                                  const robust::CancelToken& cancel,
                                  const char* who, const char* stuck) {
  const GthPlan& plan = *band.plan;
  const std::size_t n = plan.order.size();
  std::vector<double> out(n, 0.0);
  for (std::size_t m = n; m-- > last;) {
    checkpoint(cancel, n - m, who);
    const std::size_t il = plan.ifirst[m];
    const std::size_t jl = plan.jfirst[m];
    double total = exits.empty() ? 0.0 : exits[m];
    for (std::size_t j = jl; j < m; ++j) total += band.at(m, j);
    if (!(total > 0.0) || !std::isfinite(total)) {
      throw SolveError(SolveCause::kInvalidInput, who,
                       "state " + std::to_string(plan.order[m]) + stuck);
    }
    out[m] = total;
    for (std::size_t i = il; i < m; ++i) band.at(i, m) /= total;
    const double* wm = &band.at(m, jl);
    for (std::size_t i = il; i < m; ++i) {
      const double into_m = band.at(i, m);
      if (into_m == 0.0) continue;
      double* wi = &band.at(i, jl);
      for (std::size_t j = 0; j < m - jl; ++j) wi[j] += into_m * wm[j];
      if (!exits.empty()) exits[i] += into_m * exits[m];
    }
  }
  return out;
}

/// The cost half of the absorbing elimination, run on the eliminated band:
/// c(i) += w(i, m) / out(m) * c(m) for m from n-1 down, the same terms in
/// the same order as folding them inside gth_eliminate. `c` is indexed by
/// position.
void fold_costs(Band& band, std::vector<double>& c) {
  const std::vector<std::uint32_t>& ifirst = band.plan->ifirst;
  for (std::size_t m = ifirst.size(); m-- > 0;) {
    for (std::size_t i = ifirst[m]; i < m; ++i) {
      const double into_m = band.at(i, m);
      if (into_m == 0.0) continue;
      c[i] += into_m * c[m];
    }
  }
}

}  // namespace

SteadyStateResult solve_steady_state(const Ctmc& chain,
                                     const robust::CancelToken& cancel,
                                     SolveTrace* trace) {
  SteadyStateResult r;
  r.pi = checked_solve(
      "solve_steady_state", chain.size(), cancel, trace,
      [&](std::size_t& bandwidth) {
        return gth_stationary(chain.generator(), cancel, &bandwidth);
      },
      [&](linalg::Vector& pi) {
        const HealthReport report = check_stationary(chain, pi);
        r.residual = report.residual_inf;
        return report;
      });
  return r;
}

linalg::Vector gth_stationary(const linalg::CsrMatrix& weights,
                              const robust::CancelToken& cancel,
                              std::size_t* bandwidth) {
  static constexpr const char* kWho = "solve_steady_state(direct)";
  const std::size_t n = weights.rows();
  Band band = band_of(weights, cancel, kWho);
  if (bandwidth) *bandwidth = band.b;
  if (n == 1) return {1.0};
  // Completing the elimination proves that every state reaches the one at
  // position 0: each eliminated state had outflow to the survivors.
  std::vector<double> none;
  (void)gth_eliminate(band, 1, none, cancel, kWho,
                      " has no outflow to surviving states (reducible chain)");

  // Back-substitution from an unnormalized mass(0) = 1. The true masses
  // can span more than the double range (deep levels of a long chain), so
  // the mass at position k is mass[k] * 2^shift[k], and the window the
  // next step reads is rescaled whenever its newest entry drifts far from 1.
  const GthPlan& plan = *band.plan;
  const std::size_t b = band.b;
  linalg::Vector mass(n, 0.0);
  std::vector<int> shift(n, 0);
  mass[0] = 1.0;
  int scale = 0;
  bool rescaled = false;
  for (std::size_t m = 1; m < n; ++m) {
    double acc = 0.0;
    for (std::size_t i = plan.ifirst[m]; i < m; ++i) {
      acc += mass[i] * band.at(i, m);
    }
    mass[m] = acc;
    shift[m] = scale;
    if (acc > 0x1p400 || (acc > 0.0 && acc < 0x1p-400)) {
      const int e = std::ilogb(acc);
      for (std::size_t k = m + 1 > b ? m + 1 - b : 0; k <= m; ++k) {
        mass[k] = std::ldexp(mass[k], -e);
        shift[k] += e;
      }
      scale += e;
      rescaled = true;
    }
  }
  // mass[k] is positive exactly when position 0 reaches position k, so a
  // zero mass is a state no recurrent state leads to: a transient state of
  // a unichain, or the rest of a chain with an absorbing state.
  const auto unreachable = [&](std::size_t k) {
    return SolveError(SolveCause::kInvalidInput, kWho,
                      "state " + std::to_string(plan.order[k]) +
                          " is unreachable from state " +
                          std::to_string(plan.order[0]) +
                          " (reducible chain)");
  };
  linalg::Vector pi(n);
  double total = 0.0;
  if (!rescaled) {
    // Every shift is 0 and every mass lies in [2^-400, 2^400], so scaling
    // by 2^-top is exact and equals the ldexp below bit for bit. (A net
    // scale of 0 is not enough: two rescales can cancel.)
    double peak = 1.0;  // mass[0]
    for (std::size_t k = 0; k < n; ++k) {
      if (!(mass[k] > 0.0)) throw unreachable(k);
      peak = std::max(peak, mass[k]);
    }
    const double down = std::ldexp(1.0, -std::ilogb(peak));
    for (std::size_t k = 0; k < n; ++k) {
      pi[plan.order[k]] = mass[k] * down;
      total += pi[plan.order[k]];
    }
  } else {
    int top = 0;  // mass[0] * 2^shift[0] stays exactly 1
    for (std::size_t k = 0; k < n; ++k) {
      if (!(mass[k] > 0.0)) throw unreachable(k);
      top = std::max(top, std::ilogb(mass[k]) + shift[k]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      pi[plan.order[k]] = std::ldexp(mass[k], shift[k] - top);
      total += pi[plan.order[k]];
    }
  }
  for (double& x : pi) x /= total;
  return pi;
}

linalg::Vector gth_absorption_times(const linalg::CsrMatrix& weights,
                                    const linalg::Vector& exits,
                                    const linalg::Vector& costs,
                                    const robust::CancelToken& cancel,
                                    std::size_t* bandwidth) {
  static constexpr const char* kWho = "gth_absorption_times";
  const std::size_t n = weights.rows();
  if (exits.size() != n || costs.size() != n) {
    throw SolveError(SolveCause::kInvalidInput, kWho,
                     "exit and cost vectors must match the weights");
  }
  Band band = band_of(weights, cancel, kWho);
  if (bandwidth) *bandwidth = band.b;
  const GthPlan& plan = *band.plan;
  std::vector<double> e(n);
  std::vector<double> c(n);
  for (std::size_t k = 0; k < n; ++k) {
    e[k] = exits[plan.order[k]];
    c[k] = costs[plan.order[k]];
  }
  const std::vector<double> out =
      gth_eliminate(band, 0, e, cancel, kWho, " cannot reach absorption");
  fold_costs(band, c);
  // Position 0 was eliminated last, against its exit alone; each later
  // position reads the times already known below it.
  std::vector<double> tau_pos(n);
  linalg::Vector tau(n);
  for (std::size_t m = 0; m < n; ++m) {
    double acc = c[m];
    for (std::size_t j = plan.jfirst[m]; j < m; ++j) {
      acc += band.at(m, j) * tau_pos[j];
    }
    tau_pos[m] = acc / out[m];
    tau[plan.order[m]] = tau_pos[m];
  }
  return tau;
}

GthFactor::GthFactor(const linalg::CsrMatrix& weights,
                     const linalg::Vector& exits,
                     const robust::CancelToken& cancel) {
  static constexpr const char* kWho = "GthFactor";
  const std::size_t n = weights.rows();
  if (exits.size() != n) {
    throw SolveError(SolveCause::kInvalidInput, kWho,
                     "exit vector must match the weights");
  }
  Band band = band_of(weights, cancel, kWho);
  std::vector<double> e(n);
  for (std::size_t k = 0; k < n; ++k) e[k] = exits[band.plan->order[k]];
  out_ = gth_eliminate(band, 0, e, cancel, kWho, " has no exit");
  order_ = band.plan->order;
  b_ = band.b;
  w_ = std::move(band.w);
}

void GthFactor::solve_row(linalg::Vector& x) const {
  // Right-hand sides carry either sign, so these loops span the whole band:
  // outside the envelope a term is a zero of either sign, and -0 + +0 is
  // +0, not -0.
  const std::size_t n = order_.size();
  const std::size_t b = b_;
  std::vector<double> y(n);
  for (std::size_t k = 0; k < n; ++k) y[k] = x[order_[k]];
  // Censoring state m moves its right-hand side onto the survivors along
  // its row: b(j) += b(m) * w(m, j) / out(m).
  for (std::size_t m = n; m-- > 0;) {
    const std::size_t lo = m > b ? m - b : 0;
    const double f = y[m] / out_[m];
    y[m] = f;
    const double* wm = &w_[2 * b * m + b + lo];
    for (std::size_t j = 0; j < m - lo; ++j) y[lo + j] += f * wm[j];
  }
  // x(m) = b(m) / out(m) + sum_{i < m} x(i) * w(i, m) / out(m).
  for (std::size_t m = 1; m < n; ++m) {
    const std::size_t lo = m > b ? m - b : 0;
    double acc = y[m];
    for (std::size_t i = lo; i < m; ++i) acc += y[i] * w_[2 * b * i + b + m];
    y[m] = acc;
  }
  for (std::size_t k = 0; k < n; ++k) x[order_[k]] = y[k];
}

double expected_reward(const Ctmc& chain, const linalg::Vector& pi) {
  if (pi.size() != chain.size()) {
    throw std::invalid_argument("expected_reward: size mismatch");
  }
  const std::vector<StateInfo>& states = chain.states();
  double acc = 0.0;
  for (StateIndex i = 0; i < chain.size(); ++i) {
    acc += pi[i] * states[i].reward;
  }
  return acc;
}

double equivalent_failure_rate(const Ctmc& chain, const linalg::Vector& pi) {
  if (pi.size() != chain.size()) {
    throw std::invalid_argument("equivalent_failure_rate: size mismatch");
  }
  const std::vector<StateInfo>& states = chain.states();
  double up_prob = 0.0;
  double flow = 0.0;
  const auto& q = chain.generator();
  for (StateIndex i = 0; i < chain.size(); ++i) {
    if (states[i].reward <= 0.0) continue;
    up_prob += pi[i];
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      const StateIndex j = row.cols[k];
      if (j != i && states[j].reward <= 0.0) flow += pi[i] * row.values[k];
    }
  }
  if (up_prob <= 0.0) return 0.0;
  return flow / up_prob;
}

double equivalent_recovery_rate(const Ctmc& chain, const linalg::Vector& pi) {
  if (pi.size() != chain.size()) {
    throw std::invalid_argument("equivalent_recovery_rate: size mismatch");
  }
  const std::vector<StateInfo>& states = chain.states();
  double down_prob = 0.0;
  double flow = 0.0;
  const auto& q = chain.generator();
  for (StateIndex i = 0; i < chain.size(); ++i) {
    if (states[i].reward > 0.0) continue;
    down_prob += pi[i];
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      const StateIndex j = row.cols[k];
      if (j != i && states[j].reward > 0.0) flow += pi[i] * row.values[k];
    }
  }
  if (down_prob <= 0.0) return 0.0;
  return flow / down_prob;
}

}  // namespace rascad::markov
