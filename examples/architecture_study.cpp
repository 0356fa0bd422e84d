// Architecture study: the end-to-end design workflow the paper's Section 2
// describes — assess an entry design, find the weak points with importance
// analysis, compare candidate upgrades side by side, and verify the chosen
// design against the simulator before committing.
#include <iomanip>
#include <iostream>

#include "core/compare.hpp"
#include "core/importance.hpp"
#include "core/library.hpp"
#include "mg/system.hpp"
#include "sim/streaming.hpp"

int main() {
  using rascad::mg::SystemModel;

  std::cout << "=== Architecture study: entry -> midrange -> cluster ===\n\n";

  // Step 1: assess the current design.
  const auto entry_spec = rascad::core::library::entry_server();
  const auto entry = SystemModel::build(entry_spec);
  std::cout << "step 1 - current design (" << entry_spec.title << "): "
            << std::fixed << std::setprecision(1)
            << entry.yearly_downtime_min() << " min/year of downtime\n\n";

  // Step 2: where does the downtime come from?
  std::cout << "step 2 - importance ranking:\n";
  const auto imps = rascad::core::block_importance(entry);
  for (std::size_t i = 0; i < imps.size() && i < 4; ++i) {
    std::cout << "  " << std::left << std::setw(16) << imps[i].block
              << " criticality " << std::right << std::setprecision(3)
              << imps[i].criticality << ", downtime " << std::setprecision(1)
              << imps[i].yearly_downtime_min << " min/y\n";
  }
  std::cout << "  -> the power supply and memory dominate; redundancy is\n"
               "     the lever, not better parts.\n\n";

  // Step 3: compare the candidate upgrade against the baseline.
  const auto midrange = SystemModel::build(
      rascad::core::library::midrange_server());
  std::cout << "step 3 - candidate A (midrange, N+1 power, mirrored disks):\n";
  const auto cmp = rascad::core::compare_systems(entry, midrange);
  std::cout << "  downtime " << std::setprecision(1) << cmp.downtime_a_min
            << " -> " << cmp.downtime_b_min << " min/year ("
            << std::setprecision(0)
            << (1.0 - cmp.downtime_b_min / cmp.downtime_a_min) * 100.0
            << "% less)\n";
  for (std::size_t i = 0; i < cmp.blocks.size() && i < 3; ++i) {
    std::cout << "  biggest mover: " << cmp.blocks[i].block << " ("
              << std::setprecision(1) << cmp.blocks[i].delta_min()
              << " min/y)\n";
  }
  std::cout << '\n';

  // Step 4: candidate B — go all the way to a failover cluster.
  const auto cluster = SystemModel::build(
      rascad::core::library::two_node_cluster());
  std::cout << "step 4 - candidate B (two-node failover cluster): "
            << std::setprecision(1) << cluster.yearly_downtime_min()
            << " min/year\n\n";

  // Step 5: verify the winner against the independent simulator.
  const auto winner_spec = rascad::core::library::two_node_cluster();
  const auto rep =
      rascad::sim::replicate_system_streaming(winner_spec, 87'600.0, 60, 7);
  const auto ci = rep.availability.confidence_interval();
  std::cout << "step 5 - simulator check on candidate B (60 x 10 years):\n"
            << std::setprecision(7) << "  analytic  "
            << cluster.availability() << "\n  simulated "
            << rep.availability.mean() << "  (95% CI [" << ci.lo << ", "
            << ci.hi << "])\n";
  std::cout << (ci.contains(cluster.availability())
                    ? "  -> consistent; ship it.\n"
                    : "  -> INCONSISTENT; investigate before shipping.\n");
  return 0;
}
