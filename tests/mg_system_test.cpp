// Tests for the hierarchical translation (diagram -> serial RBD, block ->
// chain, subdiagram composition) and the core facade: Project, sweeps,
// reports, and the model library.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/library.hpp"
#include "core/project.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "markov/ctmc.hpp"
#include "markov/transient.hpp"
#include "mg/system.hpp"
#include "spec/parser.hpp"
#include "product_chain.hpp"

namespace {

using rascad::core::Project;
using rascad::mg::SystemModel;
using rascad::spec::ModelSpec;
using rascad::spec::parse_model;

constexpr const char* kTwoLevelModel = R"(
title = "Two Level"
globals { reboot_time = 10 min mttm = 48 h mttrfid = 4 h mission_time = 8760 h }
diagram "Top" {
  block "Server" { subdiagram = "Server" }
  block "Disk Shelf" {
    quantity = 2 min_quantity = 1 mtbf = 200000
    mttr_corrective = 30 service_response = 4
    recovery = transparent repair = transparent
  }
}
diagram "Server" {
  block "Board" { mtbf = 100000 mttr_corrective = 60 service_response = 4 }
  block "PSU" {
    quantity = 2 min_quantity = 1 mtbf = 150000
    mttr_corrective = 20 service_response = 4
    recovery = transparent repair = transparent
  }
}
)";

TEST(SystemModel, AvailabilityIsProductOfBlocks) {
  const ModelSpec m = parse_model(kTwoLevelModel);
  const SystemModel system = SystemModel::build(m);
  ASSERT_EQ(system.blocks().size(), 3u);
  double product = 1.0;
  for (const auto& b : system.blocks()) product *= b.availability;
  EXPECT_NEAR(system.availability(), product, 1e-14);
  EXPECT_GT(system.availability(), 0.999);
  EXPECT_LT(system.availability(), 1.0);
}

TEST(SystemModel, BlockEntriesCarryMetadata) {
  const SystemModel system =
      SystemModel::build(parse_model(kTwoLevelModel));
  bool saw_board = false;
  for (const auto& b : system.blocks()) {
    EXPECT_FALSE(b.diagram.empty());
    ASSERT_NE(b.chain, nullptr);
    EXPECT_GT(b.chain->size(), 0u);
    if (b.block.name == "Board") {
      saw_board = true;
      EXPECT_EQ(b.diagram, "Server");
      EXPECT_EQ(b.type, rascad::mg::MarkovModelType::kType0);
    }
  }
  EXPECT_TRUE(saw_board);
  EXPECT_GT(system.total_states(), 5u);
  EXPECT_GT(system.total_transitions(), 5u);
}

TEST(SystemModel, EqFailureRateAndMtbf) {
  const SystemModel system =
      SystemModel::build(parse_model(kTwoLevelModel));
  EXPECT_GT(system.eq_failure_rate(), 0.0);
  EXPECT_NEAR(system.mtbf_h(), 1.0 / system.eq_failure_rate(), 1e-9);
}

TEST(SystemModel, IntervalAvailabilityNearSteadyForLongHorizon) {
  const SystemModel system =
      SystemModel::build(parse_model(kTwoLevelModel));
  const double a_interval = system.interval_availability(8760.0);
  const double a_steady = system.availability();
  // Starting all-up, the interval measure exceeds steady state but
  // converges toward it for long horizons.
  EXPECT_GE(a_interval, a_steady - 1e-12);
  EXPECT_LT(a_interval - a_steady, 1e-4);
}

/// The system interval availability against the product chain's, relative
/// in U, at horizons from an hour to a year.
void expect_interval_matches_product_chain(const SystemModel& system,
                                           std::size_t states,
                                           double relative_u) {
  for (const auto& b : system.blocks()) {
    for (std::size_t i = 0; i < b.chain->size(); ++i) {
      const double r = b.chain->reward(i);
      EXPECT_TRUE(r == 0.0 || r == 1.0) << b.block.name;
    }
  }
  const rascad::testing::ProductChain product =
      rascad::testing::product_chain(system);
  ASSERT_EQ(product.chain.size(), states);
  const rascad::linalg::Vector pi0 =
      rascad::markov::point_mass(product.chain, product.initial);
  rascad::markov::TransientOptions tight;
  tight.tolerance = 1e-14;
  for (double t : {1.0, 24.0, 720.0, 8760.0}) {
    const double want = rascad::markov::interval_availability(
        product.chain, pi0, t, tight);
    const double got = system.interval_availability(t);
    EXPECT_LE(std::abs(got - want), relative_u * (1.0 - want))
        << "T=" << t << " got " << got << " want " << want;
  }
}

SystemModel build_file(const std::string& name) {
  return SystemModel::build(rascad::spec::parse_model_file(
      std::string(RASCAD_EXAMPLES_DIR) + "/" + name));
}

TEST(SystemModel, IntervalAvailabilityMatchesProductChain) {
  // Six blocks, 26 states, U ~ 1.9e-5: each block's own Simpson error
  // (minute-scale failover at t = 0) is what the first-order term removes.
  expect_interval_matches_product_chain(build_file("web_shop.rsc"), 3456,
                                        2e-8);
}

TEST(SystemModel, LowAvailabilityIntervalMatchesProductChain) {
  // U ~ 1.5e-2: the second-order remainder that Simpson still integrates
  // is no longer negligible against U.
  const SystemModel system = SystemModel::build(parse_model(R"(
globals { reboot_time = 10 min mttm = 48 h mttrfid = 4 h mission_time = 8760 h }
diagram "Plant" {
  block "Pump" { mtbf = 1000 h mttr_corrective = 8 h service_response = 4 h }
  block "Compressor" {
    mtbf = 4000 h transient_rate = 200000 fit
    mttr_corrective = 6 h service_response = 4 h
  }
  block "Controller" {
    quantity = 2 min_quantity = 1 mtbf = 1500 h
    mttr_corrective = 6 h service_response = 4 h
    recovery = nontransparent ar_time = 10 min repair = transparent
  }
}
)"));
  expect_interval_matches_product_chain(system, 48, 5e-6);
}

TEST(SystemModel, ReliabilityDecreasesWithHorizon) {
  const SystemModel system =
      SystemModel::build(parse_model(kTwoLevelModel));
  double prev = 1.0;
  for (double t : {100.0, 1000.0, 8760.0}) {
    const double r = system.reliability(t);
    EXPECT_LT(r, prev) << t;
    EXPECT_GT(r, 0.0);
    prev = r;
  }
}

TEST(SystemModel, RejectsInvalidSpec) {
  ModelSpec m = parse_model(kTwoLevelModel);
  m.diagrams[0].blocks[1].min_quantity = 9;
  EXPECT_THROW(SystemModel::build(m), std::invalid_argument);
}

TEST(SystemModel, DeepHierarchy) {
  const ModelSpec m = parse_model(R"(
diagram "L1" { block "A" { subdiagram = "L2" } }
diagram "L2" { block "B" { subdiagram = "L3" }
               block "B2" { mtbf = 100000 mttr_corrective = 30 } }
diagram "L3" { block "C" { mtbf = 50000 mttr_corrective = 60 } }
)");
  const SystemModel system = SystemModel::build(m);
  EXPECT_EQ(system.blocks().size(), 2u);
  double product = 1.0;
  for (const auto& b : system.blocks()) product *= b.availability;
  EXPECT_NEAR(system.availability(), product, 1e-14);
}

TEST(SystemModel, BlockWithOwnChainAndSubdiagram) {
  // A block can have failure parameters AND a subdiagram; both contribute
  // in series.
  const ModelSpec m = parse_model(R"(
diagram "L1" {
  block "Chassis" { mtbf = 1000000 mttr_corrective = 60 subdiagram = "Guts" }
}
diagram "Guts" { block "CPU" { mtbf = 200000 mttr_corrective = 30 } }
)");
  const SystemModel system = SystemModel::build(m);
  EXPECT_EQ(system.blocks().size(), 2u);
  double product = 1.0;
  for (const auto& b : system.blocks()) product *= b.availability;
  EXPECT_NEAR(system.availability(), product, 1e-14);
}

TEST(Project, FacadeMeasures) {
  const Project p = Project::from_string(kTwoLevelModel);
  EXPECT_GT(p.availability(), 0.999);
  EXPECT_NEAR(p.yearly_downtime_min(),
              (1.0 - p.availability()) * 525'600.0, 1e-9);
  EXPECT_GT(p.mtbf_h(), 0.0);
  EXPECT_GT(p.interval_availability_at_mission(), p.availability() - 1e-12);
  EXPECT_GT(p.reliability_at_mission(), 0.0);
  EXPECT_LT(p.reliability_at_mission(), 1.0);
}

TEST(Project, RejectsBadText) {
  EXPECT_THROW(Project::from_string("diagram {"), rascad::spec::ParseError);
  EXPECT_THROW(Project::from_string(R"(diagram "D" { block "B" { } })"),
               std::invalid_argument);
  EXPECT_THROW(Project::from_file("/nonexistent/path.rsc"),
               std::runtime_error);
}

TEST(Library, AllModelsBuildAndAreCredible) {
  for (const auto& entry : rascad::core::library::all_models()) {
    const ModelSpec spec = entry.factory();
    const SystemModel system = SystemModel::build(spec);
    const double a = system.availability();
    EXPECT_GT(a, 0.99) << entry.name;
    EXPECT_LT(a, 1.0) << entry.name;
  }
}

TEST(Library, DatacenterMatchesFigures1And2) {
  const ModelSpec m = rascad::core::library::datacenter_system();
  // Figure 1: four level-1 blocks, the Server Box one dark (subdiagram).
  ASSERT_EQ(m.diagrams.size(), 2u);
  EXPECT_EQ(m.root().blocks.size(), 4u);
  EXPECT_TRUE(m.root().blocks[0].subdiagram.has_value());
  // Figure 2: the Server Box subdiagram has 19 blocks.
  const auto* sub = m.find_diagram("Server Box");
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->blocks.size(), 19u);
}

TEST(Library, RedundantDesignsBeatEntryServer) {
  using namespace rascad::core::library;
  const double entry =
      SystemModel::build(entry_server()).availability();
  const double mid = SystemModel::build(midrange_server()).availability();
  EXPECT_GT(mid, entry);
}

TEST(Sweep, MttrMonotonicity) {
  const ModelSpec base = parse_model(kTwoLevelModel);
  const auto points = rascad::core::sweep_block_parameter(
      base, "Server", "Board",
      [](rascad::spec::BlockSpec& b, double v) { b.mttr_corrective_min = v; },
      rascad::core::linspace(10.0, 240.0, 6));
  ASSERT_EQ(points.size(), 6u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i].availability, points[i - 1].availability);
    EXPECT_GT(points[i].yearly_downtime_min,
              points[i - 1].yearly_downtime_min);
  }
}

TEST(Sweep, MtbfMonotonicity) {
  const ModelSpec base = parse_model(kTwoLevelModel);
  const auto points = rascad::core::sweep_block_parameter(
      base, "Server", "Board",
      [](rascad::spec::BlockSpec& b, double v) { b.mtbf_h = v; },
      rascad::core::logspace(10'000.0, 1'000'000.0, 5));
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].availability, points[i - 1].availability);
  }
}

TEST(Sweep, GlobalParameter) {
  const ModelSpec base = parse_model(kTwoLevelModel);
  const auto points = rascad::core::sweep_global_parameter(
      base,
      [](rascad::spec::GlobalParams& g, double v) { g.mttm_h = v; },
      {0.0, 24.0, 96.0});
  ASSERT_EQ(points.size(), 3u);
  // Longer deferred-maintenance windows leave redundant blocks exposed
  // longer: availability decreases.
  EXPECT_GE(points[0].availability, points[1].availability);
  EXPECT_GE(points[1].availability, points[2].availability);
}

TEST(Sweep, UnknownBlockThrows) {
  const ModelSpec base = parse_model(kTwoLevelModel);
  EXPECT_THROW(rascad::core::sweep_block_parameter(
                   base, "Server", "Nope",
                   [](rascad::spec::BlockSpec&, double) {}, {1.0}),
               std::invalid_argument);
}

TEST(Sweep, SpacingHelpers) {
  const auto lin = rascad::core::linspace(0.0, 1.0, 5);
  EXPECT_DOUBLE_EQ(lin.front(), 0.0);
  EXPECT_DOUBLE_EQ(lin.back(), 1.0);
  EXPECT_DOUBLE_EQ(lin[2], 0.5);
  const auto log = rascad::core::logspace(1.0, 100.0, 3);
  EXPECT_NEAR(log[1], 10.0, 1e-9);
  EXPECT_THROW(rascad::core::linspace(0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(rascad::core::logspace(0.0, 1.0, 3), std::invalid_argument);
}

TEST(Report, ContainsKeySections) {
  const SystemModel system =
      SystemModel::build(parse_model(kTwoLevelModel));
  rascad::core::ReportOptions opts;
  opts.include_chain_dumps = true;
  const std::string md = rascad::core::report_markdown(system, opts);
  EXPECT_NE(md.find("# RAS report: Two Level"), std::string::npos);
  EXPECT_NE(md.find("steady-state availability"), std::string::npos);
  EXPECT_NE(md.find("yearly downtime"), std::string::npos);
  EXPECT_NE(md.find("Generated block models"), std::string::npos);
  EXPECT_NE(md.find("| Server | Board |"), std::string::npos);
  EXPECT_NE(md.find("Chain listings"), std::string::npos);
  EXPECT_NE(md.find("Diagram structure"), std::string::npos);
}

}  // namespace
