// E13 — semi-Markov refinement ablation: the exponential-dwell CTMC vs the
// deterministic-dwell semi-Markov model of the same block, across the
// fault-rate / repair-delay product that controls how much distribution
// shape matters. Quantifies the modeling-assumption risk behind the MG
// chains (and shows it is negligible at realistic parameter scales —
// which is why RAScad's CTMC generation is sound practice).
#include <cmath>
#include <iomanip>
#include <iostream>

#include "markov/steady_state.hpp"
#include "mg/generator.hpp"

namespace {

double ctmc_availability(const rascad::spec::BlockSpec& b,
                         const rascad::spec::GlobalParams& g) {
  const auto model = rascad::mg::generate(b, g);
  const auto r = rascad::markov::solve_steady_state(model.chain);
  return rascad::markov::expected_reward(model.chain, r.pi);
}

rascad::spec::BlockSpec block(double mtbf_h) {
  rascad::spec::BlockSpec b;
  b.name = "blk";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mtbf_h = mtbf_h;
  b.transient_fit = 2'000.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.p_correct_diagnosis = 0.95;
  b.recovery = rascad::spec::Transparency::kNontransparent;
  b.ar_time_min = 6.0;
  b.repair = rascad::spec::Transparency::kTransparent;
  return b;
}

}  // namespace

int main() {
  rascad::spec::GlobalParams g;

  std::cout << "=== E13: CTMC vs deterministic-dwell semi-Markov refinement "
               "===\n\n";
  std::cout << "Type 3 block, N=2 K=1; deferred repair window D = "
            << g.mttm_h + 4.0 + 0.75 << " h\n\n";
  std::cout << std::right << std::setw(12) << "MTBF (h)" << std::setw(12)
            << "lambda*D" << std::setw(18) << "CTMC dt (m/y)" << std::setw(18)
            << "SMP dt (m/y)" << std::setw(14) << "delta %" << '\n';
  for (double mtbf : {1e6, 2e5, 5e4, 1e4, 2e3, 5e2}) {
    const auto b = block(mtbf);
    const double d = g.mttm_h + 4.0 + 0.75;
    const double lam_d = d / mtbf;
    const double u_ctmc = 1.0 - ctmc_availability(b, g);
    const double u_smp = 1.0 - rascad::mg::smp_availability(b, g);
    std::cout << std::setw(12) << std::fixed << std::setprecision(0) << mtbf
              << std::setw(12) << std::setprecision(5) << lam_d
              << std::setw(18) << std::setprecision(4) << u_ctmc * 525'600.0
              << std::setw(18) << u_smp * 525'600.0 << std::setw(14)
              << std::setprecision(3)
              << (u_smp - u_ctmc) / u_ctmc * 100.0 << '\n';
    std::cout.unsetf(std::ios::fixed);
  }

  std::cout << "\nsame sweep with deeper redundancy (N=4, K=1):\n";
  std::cout << std::right << std::setw(12) << "MTBF (h)" << std::setw(18)
            << "CTMC dt (m/y)" << std::setw(18) << "SMP dt (m/y)"
            << std::setw(14) << "delta %" << '\n';
  for (double mtbf : {2e5, 2e4, 2e3}) {
    auto b = block(mtbf);
    b.quantity = 4;
    const double u_ctmc = 1.0 - ctmc_availability(b, g);
    const double u_smp = 1.0 - rascad::mg::smp_availability(b, g);
    std::cout << std::setw(12) << std::fixed << std::setprecision(0) << mtbf
              << std::setw(18) << std::setprecision(4) << u_ctmc * 525'600.0
              << std::setw(18) << u_smp * 525'600.0 << std::setw(14)
              << std::setprecision(3)
              << (u_smp - u_ctmc) / u_ctmc * 100.0 << '\n';
    std::cout.unsetf(std::ios::fixed);
  }

  std::cout << "\nexpected shape: the refinement's effect scales with\n"
               "lambda*D (probability a second fault lands inside the\n"
               "repair window): negligible at enterprise MTBFs (the paper's\n"
               "regime, validating the exponential CTMC abstraction) and\n"
               "only visible for implausibly failure-prone parts.\n";
  return 0;
}
