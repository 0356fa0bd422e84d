// E9 — the interval measures of Section 4: interval availability,
// reliability, interval failure rate, and hazard rate over (0, T) as the
// mission time T grows, for a Figure-4-style redundant block and for the
// full midrange system.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "core/library.hpp"
#include "markov/absorbing.hpp"
#include "markov/steady_state.hpp"
#include "markov/transient.hpp"
#include "mg/generator.hpp"
#include "mg/system.hpp"

int main() {
  rascad::spec::GlobalParams g;
  rascad::spec::BlockSpec b;
  b.name = "CPU Module";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mtbf_h = 100'000.0;
  b.transient_fit = 2'000.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.recovery = rascad::spec::Transparency::kNontransparent;
  b.ar_time_min = 6.0;
  b.repair = rascad::spec::Transparency::kTransparent;

  const auto model = rascad::mg::generate(b, g);
  const auto steady = rascad::markov::solve_steady_state(model.chain);
  const double a_inf =
      rascad::markov::expected_reward(model.chain, steady.pi);
  const auto pi0 = rascad::markov::point_mass(model.chain, model.initial);
  const auto rel = rascad::markov::make_down_states_absorbing(model.chain);
  const auto rel_pi0 = rascad::markov::point_mass(rel, model.initial);

  std::cout << "=== E9: interval measures over (0, T) — Type 3 block ===\n\n";
  std::cout << "steady-state availability: " << std::setprecision(10) << a_inf
            << "\n\n";
  std::cout << std::right << std::setw(10) << "T (h)" << std::setw(16)
            << "A(T) point" << std::setw(16) << "A(0,T) interval"
            << std::setw(12) << "R(T)" << std::setw(16) << "int fail /h"
            << std::setw(14) << "hazard /h" << '\n';
  for (double t : {1.0, 10.0, 100.0, 720.0, 4380.0, 8760.0, 43'800.0}) {
    const double point =
        rascad::markov::point_availability(model.chain, pi0, t);
    const double interval =
        rascad::markov::interval_availability(model.chain, pi0, t);
    const double r = rascad::markov::reliability_at(rel, rel_pi0, t);
    const double ifr = r > 0.0 ? -std::log(r) / t : 0.0;
    const double hz = rascad::markov::hazard_rate(rel, rel_pi0, t, 1.0);
    std::cout << std::setw(10) << std::fixed << std::setprecision(0) << t
              << std::setw(16) << std::setprecision(10) << point
              << std::setw(16) << interval << std::setw(12)
              << std::setprecision(6) << r << std::setw(16)
              << std::scientific << std::setprecision(3) << ifr
              << std::setw(14) << hz << '\n';
    std::cout.unsetf(std::ios::fixed);
    std::cout.unsetf(std::ios::scientific);
  }

  std::cout << "\nsystem-level interval availability (midrange server):\n";
  const auto system = rascad::mg::SystemModel::build(
      rascad::core::library::midrange_server());
  std::cout << std::setw(10) << "T (h)" << std::setw(16) << "A(0,T)"
            << std::setw(12) << "R(T)" << '\n';
  for (double t : {24.0, 168.0, 720.0, 8760.0}) {
    std::cout << std::setw(10) << std::fixed << std::setprecision(0) << t
              << std::setw(16) << std::setprecision(10)
              << system.interval_availability(t) << std::setw(12)
              << std::setprecision(6) << system.reliability(t) << '\n';
    std::cout.unsetf(std::ios::fixed);
  }

  std::cout << "\nexpected shape: A(0,T) starts at 1, decreases toward the\n"
               "steady-state availability from above; R(T) decays; the\n"
               "hazard rate settles to the constant equivalent failure rate\n"
               "once the chain mixes.\n";
  return 0;
}
