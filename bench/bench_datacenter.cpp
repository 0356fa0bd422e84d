// E4 — Paper Figures 1-2: the Data Center System diagram/block model.
//
// Regenerates the two-level hierarchy (Server Box with its 19-block
// subdiagram + mirrored boot drives + two RAID-5 arrays), prints the
// diagram tree the GUI would show, the per-block generated-model table,
// and the system measures.
#include <iomanip>
#include <iostream>

#include "core/library.hpp"
#include "core/report.hpp"
#include "mg/system.hpp"

int main() {
  const auto spec = rascad::core::library::datacenter_system();
  const auto system = rascad::mg::SystemModel::build(spec);

  std::cout << "=== E4 / Figures 1-2: " << spec.title << " ===\n\n";
  std::cout << "diagram tree (level 1 -> level 2):\n";
  system.tree()->print(std::cout);

  std::cout << "\nper-block generated models:\n";
  std::cout << std::left << std::setw(22) << "block" << std::setw(6) << "N/K"
            << std::setw(9) << "type" << std::right << std::setw(7)
            << "states" << std::setw(15) << "availability" << std::setw(14)
            << "downtime m/y" << '\n';
  for (const auto& b : system.blocks()) {
    std::string type = rascad::mg::to_string(b.type);
    type = type.substr(0, type.find(' ', 5));  // "Type k"
    std::cout << std::left << std::setw(22) << b.block.name.substr(0, 21)
              << std::setw(6)
              << (std::to_string(b.block.quantity) + "/" +
                  std::to_string(b.block.min_quantity))
              << std::setw(9) << type << std::right << std::setw(7)
              << b.chain->size() << std::setw(15) << std::fixed
              << std::setprecision(9) << b.availability << std::setw(14)
              << std::setprecision(3) << b.yearly_downtime_min << '\n';
    std::cout.unsetf(std::ios::fixed);
  }

  std::cout << "\nsystem measures:\n" << std::setprecision(9);
  std::cout << "  availability            " << system.availability() << '\n';
  std::cout << "  yearly downtime (min)   " << std::setprecision(4)
            << system.yearly_downtime_min() << '\n';
  std::cout << "  eq. failure rate (/h)   " << system.eq_failure_rate()
            << '\n';
  std::cout << "  system MTBF (h)         " << system.mtbf_h() << '\n';
  std::cout << "  interval avail. (1 y)   " << std::setprecision(9)
            << system.interval_availability(8760.0) << '\n';
  std::cout << "  reliability (30 days)   "
            << system.reliability(30.0 * 24.0) << '\n';
  std::cout << "  total generated states  " << system.total_states() << '\n';
  return 0;
}
