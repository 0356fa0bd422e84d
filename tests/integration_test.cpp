// End-to-end integration tests: text spec -> parse -> generate -> solve ->
// measures, cross-validated against independently built GMB models and the
// Monte-Carlo simulator — the in-repo version of the paper's Section 5
// validation ("relative errors in yearly downtime are all less than 0.2%").
#include <gtest/gtest.h>

#include <cmath>

#include "core/library.hpp"
#include "core/project.hpp"
#include "gmb/workspace.hpp"
#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "mg/system.hpp"
#include "sim/streaming.hpp"
#include "spec/parser.hpp"
#include "spec/validate.hpp"
#include "spec/writer.hpp"

namespace {

using rascad::core::Project;
using rascad::mg::SystemModel;

double relative_error(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

TEST(EndToEnd, ParseGenerateSolveReport) {
  const Project project = Project::from_string(R"(
title = "Web Tier"
globals { reboot_time = 6 min mttm = 24 h mttrfid = 4 h mission_time = 8760 h }
diagram "Web Tier" {
  block "Load Balancer" {
    quantity = 2 min_quantity = 1 mtbf = 120000
    mttr_corrective = 45 service_response = 4
    recovery = transparent repair = transparent
  }
  block "App Server" { subdiagram = "App Server" }
}
diagram "App Server" {
  block "Chassis" { mtbf = 400000 mttr_corrective = 60 service_response = 4 }
  block "CPU" {
    quantity = 4 min_quantity = 3 mtbf = 500000 transient_rate = 2000 fit
    mttr_corrective = 30 service_response = 4
    recovery = nontransparent ar_time = 5 repair = transparent
  }
}
)");
  EXPECT_GT(project.availability(), 0.999);
  EXPECT_EQ(project.system().blocks().size(), 3u);
}

TEST(Validation, MgChainVsIndependentGmbChain) {
  // Build the Type-1 lean block through the generator, and the same model
  // by hand in GMB (the SHARPE-comparator role). Yearly downtime must
  // agree far inside the paper's 0.2% band.
  rascad::spec::BlockSpec b;
  b.name = "PSU";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mtbf_h = 150'000.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.recovery = rascad::spec::Transparency::kTransparent;
  b.repair = rascad::spec::Transparency::kTransparent;
  rascad::spec::GlobalParams g;

  const auto generated = rascad::mg::generate(b, g);
  const auto r = rascad::markov::solve_steady_state(generated.chain);
  const double a_mg =
      rascad::markov::expected_reward(generated.chain, r.pi);

  // Hand-built equivalent in GMB.
  rascad::markov::CtmcBuilder hand;
  const auto ok = hand.add_state("ok", 1.0);
  const auto one = hand.add_state("one-down", 1.0);
  const auto two = hand.add_state("two-down", 0.0);
  const double lambda = 1.0 / 150'000.0;
  const double deferred = 1.0 / (48.0 + 4.0 + 0.75);
  const double immediate = 1.0 / (4.0 + 0.75);
  hand.add_transition(ok, one, 2 * lambda);
  hand.add_transition(one, two, lambda);
  hand.add_transition(one, ok, deferred);
  hand.add_transition(two, one, immediate);
  rascad::gmb::Workspace ws;
  ws.add_markov("psu", hand.build());
  const double a_gmb = ws.availability("psu");

  const double dt_mg = (1.0 - a_mg) * 525'600.0;
  const double dt_gmb = (1.0 - a_gmb) * 525'600.0;
  EXPECT_LT(relative_error(dt_mg, dt_gmb), 0.002)
      << "MG " << dt_mg << " vs GMB " << dt_gmb;
}

TEST(Validation, SystemVsSimulatorWithinConfidence) {
  const auto model = rascad::spec::parse_model(R"(
globals { reboot_time = 10 min mttm = 24 h mttrfid = 4 h mission_time = 8760 h }
diagram "Box" {
  block "Board" { mtbf = 8000 mttr_corrective = 90 service_response = 4 }
  block "Disk"  {
    quantity = 2 min_quantity = 1 mtbf = 6000
    mttr_corrective = 45 service_response = 4
    recovery = transparent repair = transparent
  }
}
)");
  const double analytic = SystemModel::build(model).availability();
  const auto rep =
      rascad::sim::replicate_system_streaming(model, 80'000.0, 60, 11);
  EXPECT_TRUE(rep.availability.confidence_interval(4.0).contains(analytic))
      << "sim " << rep.availability.mean() << " vs analytic " << analytic;
}

TEST(Validation, WriterRoundTripPreservesSolution) {
  // Serialize a library model and re-solve: identical availability.
  const auto original = rascad::core::library::midrange_server();
  const double a1 = SystemModel::build(original).availability();
  const auto reparsed =
      rascad::spec::parse_model(rascad::spec::to_rsc_string(original));
  const double a2 = SystemModel::build(reparsed).availability();
  EXPECT_NEAR(a1, a2, 1e-12);
}

TEST(Validation, DatacenterEndToEnd) {
  const auto model = rascad::core::library::datacenter_system();
  const SystemModel system = SystemModel::build(model);
  const double a = system.availability();
  // A redundancy-heavy datacenter design: high availability but the
  // non-redundant centerplane/OS keep it below five nines.
  EXPECT_GT(a, 0.999);
  EXPECT_LT(a, 0.999999);
  EXPECT_EQ(system.blocks().size(), 22u);  // 19 + 3 storage blocks

  // Downtime decomposition: system downtime is dominated by the worst
  // blocks; every block contributes non-negative downtime.
  for (const auto& blk : system.blocks()) {
    EXPECT_GE(blk.yearly_downtime_min, 0.0);
    EXPECT_LT(blk.yearly_downtime_min, 600.0) << blk.block.name;
  }
}

TEST(Validation, MissionTimeFlowsThroughProject) {
  auto spec = rascad::core::library::entry_server();
  spec.globals.mission_time_h = 1000.0;
  const Project p = Project::from_spec(spec);
  const double r_mission = p.reliability_at_mission();
  const double r_year = p.system().reliability(8760.0);
  EXPECT_GT(r_mission, r_year);
}

}  // namespace
