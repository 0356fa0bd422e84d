// The exact solvers (banded GTH: the checked solve_steady_state,
// Dtmc::stationary and mttf, and gth_absorption_times) against
// independent oracles: closed-form birth-death and K-of-N solutions, a
// test-local dense LU for every generated chain family, and themselves on
// a randomly relabelled copy of a chain. Also the scale and cancellation
// contract on a ~50k-state generated block.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <exception>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "core/library.hpp"
#include "markov/absorbing.hpp"
#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"
#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "robust/cancel.hpp"
#include "spec/ast.hpp"
#include "spec/parser.hpp"
#include "bicgstab_oracle.hpp"
#include "dense_lu.hpp"
#include "dense_matrix.hpp"

namespace {

using rascad::linalg::Vector;
using rascad::markov::Ctmc;
using rascad::markov::CtmcBuilder;
using rascad::spec::BlockSpec;
using rascad::spec::GlobalParams;
using rascad::spec::Transparency;

double rel_err(double got, double want) {
  return std::abs(got - want) / std::abs(want);
}

double max_rel_err(const Vector& got, const std::vector<double>& want) {
  double worst = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    worst = std::max(worst, rel_err(got[i], want[i]));
  }
  return worst;
}

/// Birth-death CTMC: birth[i] is i -> i+1, death[i] is i+1 -> i.
Ctmc birth_death_chain(const std::vector<double>& birth,
                       const std::vector<double>& death) {
  CtmcBuilder b;
  for (std::size_t i = 0; i <= birth.size(); ++i) {
    b.add_state("L" + std::to_string(i), i == birth.size() ? 0.0 : 1.0);
  }
  for (std::size_t i = 0; i < birth.size(); ++i) {
    b.add_transition(i, i + 1, birth[i]);
    b.add_transition(i + 1, i, death[i]);
  }
  return b.build();
}

/// 250 levels, each 10x less likely than the one before, with rates
/// cycling over six orders of magnitude: the last mass is ~1e-250.
void deep_birth_death(std::vector<double>& birth, std::vector<double>& death) {
  for (int i = 0; i < 250; ++i) {
    const double scale = std::pow(10.0, i % 7 - 3);
    birth.push_back(0.1 * scale);
    death.push_back(scale);
  }
}

/// Summed mass of the down states, not 1 - A, so it keeps its digits.
double unavailability(const Ctmc& chain, const Vector& pi) {
  double down = 0.0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (chain.reward(i) <= 0.0) down += pi[i];
  }
  return down;
}

/// Test-local reference: dense LU on Q^T with the last equation replaced
/// by the normalization sum(pi) = 1.
Vector dense_lu_stationary(const Ctmc& chain) {
  const std::size_t n = chain.size();
  rascad::linalg::DenseMatrix a =
      rascad::linalg::to_dense(chain.generator().transposed());
  for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
  Vector rhs(n, 0.0);
  rhs[n - 1] = 1.0;
  return rascad::testing::dense_lu_solve(std::move(a), rhs);
}

/// Test-local reference: the mean time to failure from up state `initial`,
/// by BiCGStab on -Q_TT tau = 1 over the up states (tolerance 1e-13).
double bicgstab_mttf(const Ctmc& chain, std::size_t initial) {
  std::vector<bool> down(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    down[i] = chain.reward(i) <= 0.0;
  }
  const rascad::markov::TransientSplit split =
      rascad::markov::split_transient(chain.generator(), down);
  const std::size_t m = split.states.size();
  rascad::linalg::CsrBuilder a(m, m);
  for (std::size_t r = 0; r < m; ++r) {
    double out = split.exits[r];
    const auto row = split.weights.row(r);
    for (std::size_t k = 0; k < row.size; ++k) {
      a.add(r, row.cols[k], -row.values[k]);
      out += row.values[k];
    }
    a.add(r, r, out);
  }
  const rascad::testing::BicgstabResult r = rascad::testing::bicgstab_solve(
      a.build(), Vector(m, 1.0), 1e-13, 500'000);
  EXPECT_TRUE(r.converged);
  return r.solution[static_cast<std::size_t>(split.position[initial])];
}

/// Test-local reference: mean times to failure of every up state, by dense
/// LU on -Q_TT tau = 1 over the up states. Down states get 0.
Vector dense_lu_mttf(const Ctmc& chain) {
  std::vector<std::size_t> up;
  std::vector<std::ptrdiff_t> at(chain.size(), -1);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (chain.reward(i) > 0.0) {
      at[i] = static_cast<std::ptrdiff_t>(up.size());
      up.push_back(i);
    }
  }
  rascad::linalg::DenseMatrix a(up.size(), up.size());
  for (std::size_t r = 0; r < up.size(); ++r) {
    const auto row = chain.generator().row(up[r]);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (at[row.cols[k]] >= 0) {
        a(r, static_cast<std::size_t>(at[row.cols[k]])) = -row.values[k];
      }
    }
  }
  const Vector tau =
      rascad::testing::dense_lu_solve(std::move(a), Vector(up.size(), 1.0));
  Vector out(chain.size(), 0.0);
  for (std::size_t r = 0; r < up.size(); ++r) out[up[r]] = tau[r];
  return out;
}

/// Mean times to failure of every state in one gth_absorption_times solve
/// over the up states (0 for the down ones).
Vector gth_mttf(const Ctmc& chain) {
  std::vector<bool> down(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    down[i] = chain.reward(i) <= 0.0;
  }
  const rascad::markov::TransientSplit split =
      rascad::markov::split_transient(chain.generator(), down);
  const Vector tau = rascad::markov::gth_absorption_times(
      split.weights, split.exits, Vector(split.states.size(), 1.0));
  Vector out(chain.size(), 0.0);
  for (std::size_t k = 0; k < split.states.size(); ++k) {
    out[split.states[k]] = tau[k];
  }
  return out;
}

/// Copy of `chain` in which old state i is new state label[i].
Ctmc relabelled(const Ctmc& chain, const std::vector<std::size_t>& label) {
  const std::size_t n = chain.size();
  std::vector<std::size_t> at(n);
  for (std::size_t i = 0; i < n; ++i) at[label[i]] = i;
  CtmcBuilder b;
  for (std::size_t k = 0; k < n; ++k) {
    b.add_state(chain.state_name(at[k]), chain.reward(at[k]));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = chain.generator().row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] != i) {
        b.add_transition(label[i], label[row.cols[k]], row.values[k]);
      }
    }
  }
  return b.build();
}

/// Birth-death rates over `levels` levels, cycling over four decades.
void stiff_birth_death(std::size_t levels, std::vector<double>& birth,
                       std::vector<double>& death) {
  for (std::size_t i = 0; i < levels; ++i) {
    birth.push_back(std::pow(10.0, static_cast<double>(i % 3) - 4.0));
    death.push_back(std::pow(10.0, -static_cast<double>(i % 2)));
  }
}

GlobalParams globals() {
  GlobalParams g;
  g.reboot_time_h = 10.0 / 60.0;
  g.mttm_h = 48.0;
  g.mttrfid_h = 4.0;
  return g;
}

/// A block with every fault path on: permanent and transient faults,
/// imperfect diagnosis, latent faults, SPF, AR and reintegration times.
BlockSpec full_block(unsigned n, unsigned k, Transparency recovery,
                     Transparency repair) {
  BlockSpec b;
  b.name = "deep";
  b.quantity = n;
  b.min_quantity = k;
  b.mtbf_h = 100'000.0;
  b.transient_fit = 2'000.0;
  b.mttr_diagnosis_min = 15.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.p_correct_diagnosis = 0.95;
  b.p_latent_fault = 0.05;
  b.mttdlf_h = 48.0;
  b.recovery = recovery;
  b.ar_time_min = 6.0;
  b.p_spf = 0.01;
  b.t_spf_min = 30.0;
  b.repair = repair;
  b.reintegration_min = 8.0;
  return b;
}

BlockSpec type4_block(unsigned n) {
  return full_block(n, 1, Transparency::kNontransparent,
                    Transparency::kNontransparent);
}

// ------------------------------------------------- closed-form oracles ----

TEST(ExactOracle, BirthDeathPerStateAcross250Decades) {
  std::vector<double> birth;
  std::vector<double> death;
  deep_birth_death(birth, death);
  const std::vector<double> want =
      rascad::baselines::birth_death_stationary(birth, death);
  ASSERT_LT(want.back(), 1e-249);
  ASSERT_GT(want.back(), 1e-252);
  const Ctmc chain = birth_death_chain(birth, death);
  rascad::markov::SolveTrace trace;
  EXPECT_LT(max_rel_err(
                rascad::markov::solve_steady_state(chain, {}, &trace).pi, want),
            1e-12);
  EXPECT_TRUE(trace.success);
}

TEST(ExactOracle, BirthDeathOscillatingMasses) {
  // 300 levels whose mass ratios cycle through 0.02, 3 and 0.5, with the
  // absolute rates spread over eight orders of magnitude.
  std::vector<double> birth;
  std::vector<double> death;
  const double ratios[] = {0.02, 3.0, 0.5};
  for (int i = 0; i < 300; ++i) {
    const double scale = std::pow(10.0, (i * 5) % 9 - 4);
    birth.push_back(ratios[i % 3] * scale);
    death.push_back(scale);
  }
  const std::vector<double> want =
      rascad::baselines::birth_death_stationary(birth, death);
  ASSERT_LT(*std::min_element(want.begin(), want.end()), 1e-140);
  const Ctmc chain = birth_death_chain(birth, death);
  EXPECT_LT(max_rel_err(rascad::markov::solve_steady_state(chain).pi, want),
            1e-12);
}

TEST(ExactOracle, DtmcPerStateOnUniformizedBirthDeath) {
  // P = I + Q / q has the stationary vector of Q; the self-loops carry the
  // leftover mass and are ignored by the elimination.
  std::vector<double> birth;
  std::vector<double> death;
  deep_birth_death(birth, death);
  const std::size_t n = birth.size() + 1;
  double q = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double out = (i < birth.size() ? birth[i] : 0.0) +
                       (i > 0 ? death[i - 1] : 0.0);
    q = std::max(q, out);
  }
  q *= 1.5;
  rascad::markov::DtmcBuilder b;
  for (std::size_t i = 0; i < n; ++i) b.add_state("L" + std::to_string(i));
  for (std::size_t i = 0; i < n; ++i) {
    double stay = 1.0;
    if (i < birth.size()) {
      b.add_transition(i, i + 1, birth[i] / q);
      stay -= birth[i] / q;
    }
    if (i > 0) {
      b.add_transition(i, i - 1, death[i - 1] / q);
      stay -= death[i - 1] / q;
    }
    b.add_transition(i, i, stay);
  }
  const rascad::markov::Dtmc dtmc = b.build();
  EXPECT_LT(max_rel_err(dtmc.stationary(),
                        rascad::baselines::birth_death_stationary(birth,
                                                                  death)),
            1e-12);
}

/// Permanent faults only, perfect diagnosis, no deferral: the generated
/// Type 1 chain is the 1-of-n birth-death chain with one repairman,
/// lambda = 1e-3 / h and mu = 1/3 per hour.
rascad::mg::GeneratedModel type1_one_of(unsigned n) {
  BlockSpec b = full_block(n, 1, Transparency::kTransparent,
                           Transparency::kTransparent);
  b.mtbf_h = 1'000.0;
  b.transient_fit = 0.0;
  b.mttr_diagnosis_min = 0.0;
  b.mttr_corrective_min = 60.0;
  b.service_response_h = 2.0;
  b.p_correct_diagnosis = 1.0;
  b.p_latent_fault = 0.0;
  b.p_spf = 0.0;
  GlobalParams g = globals();
  g.mttm_h = 0.0;
  return rascad::mg::generate(b, g);
}

TEST(ExactOracle, GeneratedType1KOfNMatchesClosedForm) {
  const rascad::mg::GeneratedModel model = type1_one_of(8);
  ASSERT_EQ(model.type, rascad::mg::MarkovModelType::kType1);
  ASSERT_EQ(model.chain.size(), 9u);
  const double lambda = 1e-3;
  const double mu = 1.0 / 3.0;
  const Vector pi = rascad::markov::solve_steady_state(model.chain).pi;

  const double want_a =
      rascad::baselines::k_of_n_availability(8, 1, lambda, mu, 1);
  EXPECT_LT(rel_err(rascad::markov::expected_reward(model.chain, pi), want_a),
            1e-13);
  // The down mass (~2.6e-16) straight from the birth-death solution, not
  // as 1 - A.
  std::vector<double> birth;
  std::vector<double> death;
  for (unsigned i = 0; i < 8; ++i) {
    birth.push_back((8.0 - i) * lambda);
    death.push_back(mu);
  }
  const double want_u =
      rascad::baselines::birth_death_stationary(birth, death).back();
  EXPECT_LT(rel_err(unavailability(model.chain, pi), want_u), 1e-12);
}

// ------------------------------------------------------ dense oracle ----

TEST(ExactOracle, EveryGeneratedFamilyMatchesDenseLu) {
  std::vector<BlockSpec> blocks;
  for (const unsigned n : {1u, 2u, 8u, 48u, 128u}) {
    blocks.push_back(full_block(n, n, Transparency::kNontransparent,
                                Transparency::kNontransparent));
    if (n == 1) continue;
    for (const Transparency recovery :
         {Transparency::kTransparent, Transparency::kNontransparent}) {
      for (const Transparency repair :
           {Transparency::kTransparent, Transparency::kNontransparent}) {
        blocks.push_back(full_block(n, 1, recovery, repair));
      }
    }
  }
  for (const Transparency repair :
       {Transparency::kTransparent, Transparency::kNontransparent}) {
    BlockSpec b = full_block(2, 1, Transparency::kNontransparent, repair);
    b.mode = rascad::spec::RedundancyMode::kPrimaryStandby;
    b.failover_time_min = 3.0;
    b.p_failover = 0.98;
    blocks.push_back(b);
  }
  for (const BlockSpec& b : blocks) {
    const rascad::mg::GeneratedModel model = rascad::mg::generate(b, globals());
    const std::string what = rascad::mg::to_string(model.type) +
                             " N=" + std::to_string(b.quantity) +
                             " K=" + std::to_string(b.min_quantity);
    const Vector pi = rascad::markov::solve_steady_state(model.chain).pi;
    const Vector ref = dense_lu_stationary(model.chain);
    EXPECT_LT(rel_err(rascad::markov::expected_reward(model.chain, pi),
                      rascad::markov::expected_reward(model.chain, ref)),
              1e-13)
        << what;
    EXPECT_LT(rel_err(unavailability(model.chain, pi),
                      unavailability(model.chain, ref)),
              1e-12)
        << what;
  }
}

TEST(ExactOracle, GthFactorRowSolveMatchesDenseLu) {
  // The transient engine's factorization: x ((1/gamma) I - Q) = b, the
  // generator's rates with an exit of 1/gamma out of every state, against
  // the dense LU of the transposed system.
  const double gamma = 50.0;
  for (const unsigned n : {1u, 2u, 8u, 48u}) {
    const rascad::mg::GeneratedModel model = rascad::mg::generate(
        full_block(n, 1, Transparency::kNontransparent,
                   Transparency::kTransparent),
        globals());
    const auto& q = model.chain.generator();
    const std::size_t size = q.rows();
    const rascad::markov::GthFactor factor(q, Vector(size, 1.0 / gamma));
    rascad::linalg::DenseMatrix lt(size, size);  // ((1/gamma) I - Q)'
    for (std::size_t r = 0; r < size; ++r) {
      const auto row = q.row(r);
      for (std::size_t k = 0; k < row.size; ++k) {
        lt(row.cols[k], r) -= row.values[k];
      }
      lt(r, r) += 1.0 / gamma;
    }
    std::mt19937_64 rng(n);
    std::uniform_real_distribution<double> draw(-1.0, 1.0);
    Vector b(size);
    for (double& v : b) v = draw(rng);
    Vector x = b;
    factor.solve_row(x);
    const Vector ref = rascad::testing::dense_lu_solve(lt, b);
    double err = 0.0;
    double scale = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      err = std::max(err, std::abs(x[i] - ref[i]));
      scale = std::max(scale, std::abs(ref[i]));
    }
    EXPECT_LT(err, 1e-12 * scale) << "N=" << n;
  }
}

TEST(ExactOracle, PermutedChainGivesSameAnswer) {
  std::vector<double> birth;
  std::vector<double> death;
  deep_birth_death(birth, death);
  const Ctmc chains[] = {rascad::mg::generate(type4_block(48), globals()).chain,
                         birth_death_chain(birth, death)};
  std::mt19937 rng(20020623);
  for (const Ctmc& chain : chains) {
    const std::size_t n = chain.size();
    std::vector<std::size_t> label(n);
    std::iota(label.begin(), label.end(), std::size_t{0});
    std::shuffle(label.begin(), label.end(), rng);
    const Ctmc permuted = relabelled(chain, label);
    const Vector pi = rascad::markov::solve_steady_state(chain).pi;
    const Vector pi_p = rascad::markov::solve_steady_state(permuted).pi;
    const Vector tau = gth_mttf(chain);
    const Vector tau_p = gth_mttf(permuted);
    double worst_pi = 0.0;
    double worst_tau = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      worst_pi = std::max(worst_pi, rel_err(pi_p[label[i]], pi[i]));
      if (tau[i] > 0.0) {
        worst_tau = std::max(worst_tau, rel_err(tau_p[label[i]], tau[i]));
      }
    }
    EXPECT_LT(worst_pi, 1e-12) << n << " states";
    EXPECT_LT(worst_tau, 1e-12) << n << " states";
  }
}

/// `chain` with one arc i -> j moved to i -> j + 1, where j has another
/// way in and i had no arc to j + 1: the pattern changes, but every state
/// stays reachable.
Ctmc with_one_arc_moved(const Ctmc& chain) {
  const std::size_t n = chain.size();
  const auto& q = chain.generator();
  std::vector<std::size_t> in(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] != i) ++in[row.cols[k]];
    }
  }
  std::size_t from = n;
  std::size_t to = n;
  for (std::size_t i = 0; i < n && from == n; ++i) {
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      const std::size_t j = row.cols[k];
      if (j == i || in[j] < 2 || j + 1 >= n || j + 1 == i ||
          q.at(i, j + 1) != 0.0) {
        continue;
      }
      from = i;
      to = j;
      break;
    }
  }
  CtmcBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.add_state(chain.state_name(i), chain.reward(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      const std::size_t j = row.cols[k];
      if (j == i) continue;
      b.add_transition(i, i == from && j == to ? j + 1 : j, row.values[k]);
    }
  }
  return b.build();
}

/// Runs f on a new thread, which starts with no plan, and rethrows here
/// what it throws, so a solve that fails fails the test and not the suite.
template <class F>
void on_new_thread(F&& f) {
  std::exception_ptr error;
  std::thread([&] {
    try {
      f();
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
}

TEST(SteadyExact, OrderReuseIsBitIdentical) {
  // B has A's sparsity pattern and other rates; C is B with one arc moved.
  BlockSpec other = type4_block(48);
  other.mtbf_h = 70'000.0;
  other.transient_fit = 3'000.0;
  other.service_response_h = 2.0;
  const Ctmc a = rascad::mg::generate(type4_block(48), globals()).chain;
  const Ctmc b = rascad::mg::generate(other, globals()).chain;
  ASSERT_EQ(a.generator().row_ptr(), b.generator().row_ptr());
  ASSERT_EQ(a.generator().col_idx(), b.generator().col_idx());
  const Ctmc c = with_one_arc_moved(b);
  ASSERT_NE(c.generator().col_idx(), b.generator().col_idx());

  // Every solve sequence runs on its own new thread, which starts with
  // no remembered plan.
  const auto solve_on_fresh_thread = [](std::vector<const Ctmc*> chains) {
    std::vector<Vector> pis;
    std::vector<std::size_t> bandwidths;
    on_new_thread([&] {
      for (const Ctmc* chain : chains) {
        std::size_t bw = 0;
        pis.push_back(
            rascad::markov::gth_stationary(chain->generator(), {}, &bw));
        bandwidths.push_back(bw);
      }
    });
    return std::make_pair(pis, bandwidths);
  };
  const auto b_fresh = solve_on_fresh_thread({&b});
  const auto c_fresh = solve_on_fresh_thread({&c});
  const auto in_turn = solve_on_fresh_thread({&a, &b, &c});
  EXPECT_EQ(in_turn.first[1], b_fresh.first[0]);
  EXPECT_EQ(in_turn.second[1], b_fresh.second[0]);
  EXPECT_EQ(in_turn.first[2], c_fresh.first[0]);
  EXPECT_EQ(in_turn.second[2], c_fresh.second[0]);
  EXPECT_NE(in_turn.first[0], in_turn.first[1]);
  for (const double p : c_fresh.first[0]) ASSERT_GT(p, 0.0);
}

/// The bits of every entry, so that +0 and -0 tell apart.
std::vector<std::uint64_t> bits(const Vector& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

/// The bits of each kind of solve a GTH plan serves, on one chain: pi, the
/// mean times to absorption in the down states (empty unless the chain has
/// up and down states), and a GthFactor row solve of a right-hand side of
/// either sign. The absorption times run on the up states' own pattern.
std::vector<std::uint64_t> pi_bits(const Ctmc& chain) {
  return bits(rascad::markov::gth_stationary(chain.generator()));
}

std::vector<std::uint64_t> tau_bits(const Ctmc& chain) {
  const std::size_t n = chain.size();
  std::vector<bool> down(n);
  std::size_t downs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    down[i] = chain.reward(i) <= 0.0;
    downs += down[i] ? 1 : 0;
  }
  if (downs == 0 || downs == n) return {};
  const auto split = rascad::markov::split_transient(chain.generator(), down);
  return bits(rascad::markov::gth_absorption_times(
      split.weights, split.exits, Vector(split.states.size(), 1.0)));
}

std::vector<std::uint64_t> factor_bits(const Ctmc& chain) {
  const std::size_t n = chain.size();
  const rascad::markov::GthFactor factor(chain.generator(),
                                         Vector(n, 1.0 / 50.0));
  std::mt19937_64 rng(n);
  std::uniform_real_distribution<double> draw(-1.0, 1.0);
  Vector x(n);
  for (double& v : x) v = draw(rng);
  factor.solve_row(x);
  return bits(x);
}

struct PlanOutputs {
  std::vector<std::uint64_t> pi;
  std::vector<std::uint64_t> tau;
  std::vector<std::uint64_t> solve;
  bool operator==(const PlanOutputs&) const = default;
};

PlanOutputs plan_outputs(const Ctmc& chain) {
  return {pi_bits(chain), tau_bits(chain), factor_bits(chain)};
}

/// plan_outputs of each chain, each on a new thread: a thread starts with
/// no plan, so each of these solves plans its own elimination.
std::vector<PlanOutputs> outputs_on_fresh_threads(
    const std::vector<Ctmc>& chains) {
  std::vector<PlanOutputs> out;
  for (const Ctmc& chain : chains) {
    on_new_thread([&] { out.push_back(plan_outputs(chain)); });
  }
  return out;
}

/// `chain` with its rates redrawn: the same pattern with other values, as
/// at the next point of a sweep.
Ctmc rerated(const Ctmc& chain, std::uint64_t seed) {
  const auto& q = chain.generator();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> factor(0.25, 4.0);
  std::vector<double> values(q.nnz());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::size_t first = q.row_ptr()[i];
    const auto row = q.row(i);
    double exit = 0.0;
    std::size_t diag = q.nnz();
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] == i) {
        diag = first + k;
        continue;
      }
      values[first + k] = row.values[k] * factor(rng);
      exit += values[first + k];
    }
    if (diag < q.nnz()) values[diag] = -exit;
  }
  return Ctmc(chain.state_table(), q.with_values(std::move(values)));
}

/// The chains of every block of `spec` that has failures of its own.
void add_blocks(const rascad::spec::ModelSpec& spec, std::vector<Ctmc>& out) {
  for (const auto& diagram : spec.diagrams) {
    for (const auto& block : diagram.blocks) {
      if (!block.has_own_failures()) continue;
      out.push_back(rascad::mg::generate(block, spec.globals).chain);
    }
  }
}

TEST(SteadyExact, PlanHitIsBitIdenticalOnEveryBlock) {
  // Every library block, web_shop.rsc and deep Type 4 blocks, each next to
  // a chain of its pattern with other rates. Solving the pair in turn on
  // one thread serves the second from the first one's plans.
  std::vector<Ctmc> blocks;
  for (const auto& entry : rascad::core::library::all_models()) {
    add_blocks(entry.factory(), blocks);
  }
  add_blocks(rascad::spec::parse_model_file(std::string(RASCAD_EXAMPLES_DIR) +
                                            "/web_shop.rsc"),
             blocks);
  for (const unsigned n : {2u, 8u, 48u, 480u}) {
    blocks.push_back(rascad::mg::generate(type4_block(n), globals()).chain);
  }
  std::vector<Ctmc> chains;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    chains.push_back(blocks[k]);
    chains.push_back(rerated(blocks[k], k + 1));
  }
  const std::vector<PlanOutputs> fresh = outputs_on_fresh_threads(chains);
  // On a new thread the first solve of each pattern plans; here each kind
  // runs twice in a row, so the second run, and the first on the rerated
  // twin, reuse a plan already made.
  on_new_thread([&] {
    for (std::size_t k = 0; k < chains.size(); ++k) {
      for (int rep = 0; rep < 2; ++rep) {
        EXPECT_EQ(pi_bits(chains[k]), fresh[k].pi) << "chain " << k;
      }
      for (int rep = 0; rep < 2; ++rep) {
        EXPECT_EQ(tau_bits(chains[k]), fresh[k].tau) << "chain " << k;
      }
      for (int rep = 0; rep < 2; ++rep) {
        EXPECT_EQ(factor_bits(chains[k]), fresh[k].solve) << "chain " << k;
      }
    }
  });
  for (std::size_t k = 0; k < chains.size(); k += 2) {
    EXPECT_NE(fresh[k].pi, fresh[k + 1].pi) << "chain " << k;
  }
}

TEST(SteadyExact, ReplanningAfterOtherPatternsIsBitIdentical) {
  // Nine blocks, each with its own generator and up-state patterns (more
  // than the thread's eight plans), visited forward, backward and forward
  // on one thread: most solves come after eight other patterns, so their
  // plans were evicted and they plan again, while the turns reuse recent
  // plans. A factor made before all of them keeps its own order and band.
  std::vector<Ctmc> chains;
  for (unsigned n = 2; n <= 10; ++n) {
    chains.push_back(rascad::mg::generate(type4_block(n), globals()).chain);
  }
  const std::vector<PlanOutputs> fresh = outputs_on_fresh_threads(chains);
  const Ctmc& held = chains.back();
  on_new_thread([&] {
    const rascad::markov::GthFactor factor(held.generator(),
                                           Vector(held.size(), 1.0 / 50.0));
    for (int round = 0; round < 3; ++round) {
      for (std::size_t k = 0; k < chains.size(); ++k) {
        const std::size_t at = round == 1 ? chains.size() - 1 - k : k;
        EXPECT_EQ(plan_outputs(chains[at]), fresh[at])
            << "round " << round << ", chain " << at;
      }
    }
    std::mt19937_64 rng(held.size());
    std::uniform_real_distribution<double> draw(-1.0, 1.0);
    Vector x(held.size());
    for (double& v : x) v = draw(rng);
    factor.solve_row(x);
    EXPECT_EQ(bits(x), fresh.back().solve);
  });
}

TEST(SteadyExact, EqualSizedPatternsGetTheirOwnPlans) {
  // b and c have as many states and entries as each other and the same
  // row lengths; only one column index differs.
  const Ctmc b = rascad::mg::generate(type4_block(48), globals()).chain;
  const Ctmc c = with_one_arc_moved(b);
  ASSERT_EQ(c.size(), b.size());
  ASSERT_EQ(c.generator().nnz(), b.generator().nnz());
  ASSERT_EQ(c.generator().row_ptr(), b.generator().row_ptr());
  ASSERT_NE(c.generator().col_idx(), b.generator().col_idx());
  const std::vector<PlanOutputs> fresh = outputs_on_fresh_threads({b, c});
  ASSERT_NE(fresh[0].pi, fresh[1].pi);
  for (const bool b_first : {true, false}) {
    on_new_thread([&] {
      const std::size_t first = b_first ? 0 : 1;
      const Ctmc& one = b_first ? b : c;
      const Ctmc& other = b_first ? c : b;
      EXPECT_EQ(plan_outputs(one), fresh[first]);
      EXPECT_EQ(plan_outputs(other), fresh[1 - first]);
      EXPECT_EQ(plan_outputs(one), fresh[first]);
    });
  }
}

TEST(SteadyExact, RescalesThatCancelKeepTheSlowNormalization) {
  // Masses fall 2^92 a level for five levels and rise 2^92 a level for
  // five more: the back-substitution rescales down by 2^-460 at level 5
  // and up by 2^460 at level 10, a net scale of 0 after two rescales. The
  // bits were recorded from the exponent-by-exponent normalization (ldexp
  // of every mass), which this chain must still take.
  const std::vector<double> birth = {0x1.8p-92, 0x1.8p-92, 0x1.8p-93,
                                     0x1.8p-93, 0x1.4p-92, 0x1p92,
                                     0x1p92,    0x1p92,    0x1p92,
                                     0x1p92};
  const Ctmc chain =
      birth_death_chain(birth, std::vector<double>(birth.size(), 1.0));
  const std::vector<std::uint64_t> want = {
      0x3fd8c9644f01efbc, 0x3a22970b3b4173cd, 0x346be290d8e22db3,
      0x2ea4e9eca2a9a246, 0x28df5ee2f3fe736a, 0x23239b4dd87f0822,
      0x28e39b4dd87f0822, 0x2ea39b4dd87f0822, 0x34639b4dd87f0822,
      0x3a239b4dd87f0822, 0x3fe39b4dd87f0822};
  std::size_t bandwidth = 0;
  EXPECT_EQ(bits(rascad::markov::gth_stationary(chain.generator(), {},
                                                &bandwidth)),
            want);
  EXPECT_EQ(bandwidth, 1u);
  // pi(10) / pi(0) is the product of the ten level ratios, 405/256.
  const Vector pi = rascad::markov::gth_stationary(chain.generator());
  EXPECT_LT(rel_err(pi[10] / pi[0], 405.0 / 256.0), 1e-15);
}

/// FNV-1a over the bytes of `words`, least significant byte first.
std::uint64_t digest(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325;
  for (const std::uint64_t w : words) {
    for (int k = 0; k < 8; ++k) {
      h ^= (w >> (8 * k)) & 0xff;
      h *= 0x100000001b3;
    }
  }
  return h;
}

TEST(SteadyExact, DeepBlocksKeepTheFullBandBits) {
  // The other plan tests compare the envelope loops with themselves, which
  // a wrong envelope passes. These digests of pi, tau and a GthFactor row
  // solve were recorded from an elimination that ran every loop over the
  // whole band, so skipping a term that is not an exact +0 shows here.
  struct Want {
    unsigned n;
    std::size_t states;
    std::size_t up_states;
    std::uint64_t pi, tau, solve;
  };
  const Want wants[] = {
      {2, 11, 3, 0xf35784ce760b5994, 0x1b05d1eece7f2935, 0xe6d9177cdd3385d0},
      {8, 53, 15, 0x7bc82b94a0601401, 0x7e9caf1541053801, 0xda0214140cd1188a},
      {48, 333, 95, 0x85f2d46b4e9fe07d, 0xcb7c1d6fb658af81,
       0xe37bc19065585c68},
      {480, 3357, 959, 0x00230b687e56f551, 0xc196b8f6c991d386,
       0xb538360237f9318d},
  };
  for (const Want& want : wants) {
    const Ctmc chain =
        rascad::mg::generate(type4_block(want.n), globals()).chain;
    const PlanOutputs got = plan_outputs(chain);
    ASSERT_EQ(got.pi.size(), want.states) << "N = " << want.n;
    ASSERT_EQ(got.tau.size(), want.up_states) << "N = " << want.n;
    EXPECT_EQ(digest(got.pi), want.pi) << "N = " << want.n;
    EXPECT_EQ(digest(got.tau), want.tau) << "N = " << want.n;
    EXPECT_EQ(digest(got.solve), want.solve) << "N = " << want.n;
  }
}

// ---------------------------------------------- mean time to absorption ----

TEST(ExactAbsorbing, GeneratedType1OneOfNMatchesClosedForm) {
  // The 1-of-4 block has an MTTF of ~1.6e9 h, the 1-of-8 one ~1.2e16 h.
  for (unsigned n = 2; n <= 8; ++n) {
    const rascad::mg::GeneratedModel model = type1_one_of(n);
    ASSERT_EQ(model.chain.size(), n + 1u);
    const double want =
        rascad::baselines::k_of_n_mttf_with_repair(n, 1, 1e-3, 1.0 / 3.0, 1);
    rascad::markov::SolveTrace trace;
    const double got = rascad::markov::mttf(
        model.chain, model.initial, {}, &trace);
    EXPECT_LT(rel_err(got, want), 1e-13) << "1-of-" << n;
    EXPECT_TRUE(trace.success) << trace.summary();
  }
}

TEST(ExactAbsorbing, BirthDeathMttfAcrossFourDecades) {
  for (const std::size_t levels : {5u, 10u, 20u, 40u}) {
    std::vector<double> birth;
    std::vector<double> death;
    stiff_birth_death(levels, birth, death);
    const double want = rascad::baselines::birth_death_mttf(birth, death);
    rascad::markov::SolveTrace trace;
    const double got = rascad::markov::mttf(
        birth_death_chain(birth, death), 0, {}, &trace);
    EXPECT_LT(rel_err(got, want), 1e-12) << levels << " levels";
    EXPECT_TRUE(trace.success) << trace.summary();
  }
}

TEST(ExactAbsorbing, BirthDeathMttfNear1e200) {
  // Each level is 10x likelier to fall back than to climb: 200 levels put
  // the MTTF near 1e200 h.
  const std::vector<double> birth(200, 0.1);
  const std::vector<double> death(200, 1.0);
  const double want = rascad::baselines::birth_death_mttf(birth, death);
  ASSERT_GT(want, 1e195);
  rascad::markov::SolveTrace trace;
  const double got = rascad::markov::mttf(
      birth_death_chain(birth, death), 0, {}, &trace);
  EXPECT_LT(rel_err(got, want), 1e-12);
  EXPECT_TRUE(trace.success) << trace.summary();
}

TEST(ExactAbsorbing, EveryGeneratedFamilyMatchesDenseLu) {
  std::vector<BlockSpec> blocks;
  for (const unsigned n : {1u, 2u, 8u, 48u, 128u}) {
    blocks.push_back(full_block(n, n, Transparency::kNontransparent,
                                Transparency::kNontransparent));
    if (n == 1) continue;
    for (const Transparency recovery :
         {Transparency::kTransparent, Transparency::kNontransparent}) {
      for (const Transparency repair :
           {Transparency::kTransparent, Transparency::kNontransparent}) {
        blocks.push_back(full_block(n, 1, recovery, repair));
      }
    }
  }
  for (const BlockSpec& b : blocks) {
    const rascad::mg::GeneratedModel model = rascad::mg::generate(b, globals());
    const std::string what = rascad::mg::to_string(model.type) +
                             " N=" + std::to_string(b.quantity) +
                             " K=" + std::to_string(b.min_quantity);
    const Vector ref = dense_lu_mttf(model.chain);
    const Vector tau = gth_mttf(model.chain);
    double worst = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (ref[i] != 0.0) worst = std::max(worst, rel_err(tau[i], ref[i]));
    }
    EXPECT_LT(worst, 1e-10) << what;
    EXPECT_LT(rel_err(rascad::markov::mttf(model.chain,
                                                         model.initial),
                      ref[model.initial]),
              1e-10)
        << what;
  }
}

// ------------------------------------------------- scale and stopping ----

/// Type 4, N = 7200, K = 1: ~50k states, generated once for the binary.
const Ctmc& chain_50k() {
  static const Ctmc chain =
      rascad::mg::generate(type4_block(7200), globals()).chain;
  return chain;
}

TEST(ExactScale, Type4BlockWith50kStatesIsOneDirectAttempt) {
  const Ctmc& chain = chain_50k();
  ASSERT_GT(chain.size(), 50'000u);
  rascad::markov::SolveTrace trace;
  const Vector pi = rascad::markov::solve_steady_state(chain, {}, &trace).pi;
  ASSERT_TRUE(trace.success) << trace.summary();
  const double a = rascad::markov::expected_reward(chain, pi);
  EXPECT_GT(a, 0.99);
  EXPECT_LT(a, 1.0);
}

TEST(ExactScale, PreCancelledTokenStopsStationarySolve) {
  const Ctmc& chain = chain_50k();
  const auto cancel = rascad::robust::CancelToken::manual();
  cancel.request_cancel();
  try {
    (void)rascad::markov::solve_steady_state(chain, cancel);
    FAIL() << "expected SolveError(kCancelled)";
  } catch (const rascad::robust::SolveError& e) {
    EXPECT_EQ(e.cause(), rascad::robust::SolveCause::kCancelled);
  }
}

TEST(ExactScale, Type4BlockWith50kStatesMttfIsOneDirectAttempt) {
  const Ctmc& chain = chain_50k();
  rascad::markov::SolveTrace trace;
  const double mttf =
      rascad::markov::mttf(chain, 0, {}, &trace);
  ASSERT_TRUE(trace.success) << trace.summary();
  EXPECT_LT(trace.residual_check, 1e-14);
  // Too large for a dense oracle; the test-local BiCGStab is an independent
  // one.
  EXPECT_LT(rel_err(mttf, bicgstab_mttf(chain, 0)), 1e-10);
}

TEST(ExactScale, PreCancelledTokenStopsAbsorbingSolve) {
  const Ctmc& chain = chain_50k();
  std::vector<bool> down(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    down[i] = chain.reward(i) <= 0.0;
  }
  const rascad::markov::TransientSplit split =
      rascad::markov::split_transient(chain.generator(), down);
  const auto cancel = rascad::robust::CancelToken::manual();
  cancel.request_cancel();
  try {
    (void)rascad::markov::gth_absorption_times(
        split.weights, split.exits, Vector(split.states.size(), 1.0), cancel);
    FAIL() << "expected SolveError(kCancelled)";
  } catch (const rascad::robust::SolveError& e) {
    EXPECT_EQ(e.cause(), rascad::robust::SolveCause::kCancelled);
  }
}

TEST(ExactScale, AttemptSpanRecordsSizeAndBandwidth) {
  const Ctmc chain = rascad::mg::generate(type4_block(48), globals()).chain;
  rascad::obs::set_enabled(true);
  rascad::obs::clear_trace();
  (void)rascad::markov::solve_steady_state(chain);
  const rascad::obs::TraceDump dump = rascad::obs::drain_trace();
  rascad::obs::set_enabled(false);
  std::vector<std::string> details;
  for (const auto& span : dump.spans) {
    if (std::string(span.name) == "ladder.attempt") {
      details.push_back(span.detail);
    }
  }
  ASSERT_EQ(details.size(), 1u);
  const std::string prefix = "direct ok n=" + std::to_string(chain.size()) +
                             " bw=";
  ASSERT_EQ(details[0].rfind(prefix, 0), 0u) << details[0];
  // A level holds about seven states; RCM keeps the band near that width,
  // where the generator's own order spans hundreds of states.
  const int bandwidth = std::stoi(details[0].substr(prefix.size()));
  EXPECT_GE(bandwidth, 1);
  EXPECT_LE(bandwidth, 14);
}

}  // namespace
