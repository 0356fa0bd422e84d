#include "markov/absorbing.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "markov/steady_state.hpp"

namespace rascad::markov {

Ctmc make_absorbing(const Ctmc& chain,
                    const std::vector<StateIndex>& absorbing) {
  std::vector<bool> is_absorbing(chain.size(), false);
  for (StateIndex s : absorbing) {
    if (s >= chain.size()) {
      throw std::out_of_range("make_absorbing: state out of range");
    }
    is_absorbing[s] = true;
  }
  std::size_t absorbing_count = 0;
  for (bool b : is_absorbing) absorbing_count += b ? 1 : 0;
  if (absorbing_count == chain.size()) {
    throw std::invalid_argument("make_absorbing: no transient states left");
  }
  // Only Q is new: each kept row's rates in column order, then its
  // diagonal summed in that order, the buckets CtmcBuilder::build would
  // form from the same arcs. The states are the source chain's own table.
  const auto& q = chain.generator();
  const std::size_t n = chain.size();
  std::vector<std::uint32_t> row_ptr(n + 1, 0);
  std::vector<std::uint32_t> cols;
  std::vector<double> vals;
  cols.reserve(q.nnz());
  vals.reserve(q.nnz());
  for (StateIndex i = 0; i < n; ++i) {
    if (!is_absorbing[i]) {
      const auto row = q.row(i);
      double exit = 0.0;
      for (std::size_t k = 0; k < row.size; ++k) {
        if (row.cols[k] == i) continue;
        cols.push_back(row.cols[k]);
        vals.push_back(row.values[k]);
        exit += row.values[k];
      }
      if (exit > 0.0) {
        cols.push_back(static_cast<std::uint32_t>(i));
        vals.push_back(-exit);
      }
    }
    row_ptr[i + 1] = static_cast<std::uint32_t>(cols.size());
  }
  return Ctmc(chain.state_table(),
              linalg::CsrMatrix::from_rows(n, std::move(row_ptr),
                                           std::move(cols), std::move(vals)));
}

Ctmc make_down_states_absorbing(const Ctmc& chain) {
  return make_absorbing(chain, chain.down_states());
}

TransientSplit split_transient(const linalg::CsrMatrix& weights,
                               const std::vector<bool>& absorbing) {
  TransientSplit split;
  split.position.assign(weights.rows(), -1);
  for (StateIndex i = 0; i < weights.rows(); ++i) {
    if (absorbing[i]) continue;
    split.position[i] = static_cast<std::ptrdiff_t>(split.states.size());
    split.states.push_back(i);
  }
  const std::size_t m = split.states.size();
  linalg::CsrBuilder builder(m, m);
  split.exits.assign(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const auto row = weights.row(split.states[r]);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] == split.states[r]) continue;
      const std::ptrdiff_t c = split.position[row.cols[k]];
      if (c < 0) {
        split.exits[r] += row.values[k];
      } else {
        builder.add(r, static_cast<std::size_t>(c), row.values[k]);
      }
    }
  }
  split.weights = builder.build();
  return split;
}

linalg::Vector checked_absorption_times(const char* name,
                                        const TransientSplit& split,
                                        const linalg::Vector& costs,
                                        const robust::CancelToken& cancel,
                                        SolveTrace* trace) {
  // diag(out) - W in sparse form, for the independent check.
  const std::size_t m = split.states.size();
  linalg::CsrBuilder builder(m, m);
  for (std::size_t r = 0; r < m; ++r) {
    double out = split.exits[r];
    const auto row = split.weights.row(r);
    for (std::size_t k = 0; k < row.size; ++k) {
      builder.add(r, row.cols[k], -row.values[k]);
      out += row.values[k];
    }
    builder.add(r, r, out);
  }
  const linalg::CsrMatrix a = builder.build();

  return checked_solve(
      name, m, cancel, trace,
      [&](std::size_t& bandwidth) {
        return gth_absorption_times(split.weights, split.exits, costs, cancel,
                                    &bandwidth);
      },
      [&](linalg::Vector& times) {
        return check_absorption_times(a, times, costs);
      });
}

double mttf(const Ctmc& chain, StateIndex initial,
            const robust::CancelToken& cancel, SolveTrace* trace) {
  const std::vector<StateIndex> down = chain.down_states();
  if (down.empty() || chain.reward(initial) <= 0.0) return 0.0;

  // Up states are transient and every arc into a down state is an exit:
  // the solve's weights come straight from the generator.
  std::vector<bool> absorbing(chain.size(), false);
  for (StateIndex i : down) absorbing[i] = true;
  const TransientSplit split = split_transient(chain.generator(), absorbing);
  const linalg::Vector tau = checked_absorption_times(
      "mttf", split, linalg::Vector(split.states.size(), 1.0), cancel, trace);
  return tau[static_cast<std::size_t>(split.position[initial])];
}

namespace {

/// Probability mass on the states that can still move (not yet absorbed).
double surviving_mass(const Ctmc& absorbing_chain, const linalg::Vector& pi) {
  double alive = 0.0;
  for (StateIndex i = 0; i < absorbing_chain.size(); ++i) {
    if (absorbing_chain.exit_rate(i) > 0.0) alive += pi[i];
  }
  return alive;
}

}  // namespace

double reliability_at(const Ctmc& absorbing_chain,
                      const linalg::Vector& initial, double t,
                      const TransientOptions& opts) {
  return surviving_mass(
      absorbing_chain,
      transient_distribution(absorbing_chain, initial, t, opts));
}

double hazard_rate(const Ctmc& absorbing_chain, const linalg::Vector& initial,
                   double t, double dt, const TransientOptions& opts) {
  if (!(dt > 0.0)) {
    throw std::invalid_argument("hazard_rate: dt must be positive");
  }
  // pi(t + dt) steps on from pi(t).
  const linalg::Vector pi_t =
      transient_distribution(absorbing_chain, initial, t, opts);
  const double r0 = surviving_mass(absorbing_chain, pi_t);
  const double r1 = surviving_mass(
      absorbing_chain, transient_distribution(absorbing_chain, pi_t, dt, opts));
  if (r0 <= 0.0 || r1 <= 0.0) return 0.0;
  return -(std::log(r1) - std::log(r0)) / dt;
}

}  // namespace rascad::markov
