// Tests for the core extras: parts database enrichment, DOT export, and
// the importance / sensitivity analysis module.
#include <gtest/gtest.h>

#include <cmath>

#include "core/export_dot.hpp"
#include "core/importance.hpp"
#include "core/library.hpp"
#include "core/partsdb.hpp"
#include "mg/system.hpp"
#include "spec/parser.hpp"

namespace {

using rascad::core::apply_parts_database;
using rascad::core::PartsDatabase;
using rascad::mg::SystemModel;

constexpr const char* kPartsCsv = R"(# demo parts database
part_number,description,mtbf_h,transient_fit,mttr_diagnosis_min,mttr_corrective_min,mttr_verification_min
501-1234,System board,250000,1500,15,45,15
540-9999,Disk drive,400000,,10,20,10
300-0001,PSU,150000,,,20,
)";

TEST(PartsDb, ParsesCsv) {
  const PartsDatabase db = PartsDatabase::from_csv(kPartsCsv);
  EXPECT_EQ(db.size(), 3u);
  const auto* board = db.find("501-1234");
  ASSERT_NE(board, nullptr);
  EXPECT_EQ(board->description, "System board");
  EXPECT_DOUBLE_EQ(*board->mtbf_h, 250'000.0);
  EXPECT_DOUBLE_EQ(*board->transient_fit, 1'500.0);
  const auto* disk = db.find("540-9999");
  ASSERT_NE(disk, nullptr);
  EXPECT_FALSE(disk->transient_fit.has_value());
  EXPECT_EQ(db.find("nope"), nullptr);
}

TEST(PartsDb, RejectsBadCsv) {
  EXPECT_THROW(PartsDatabase::from_csv("wrong,header\n1,2"),
               std::invalid_argument);
  EXPECT_THROW(PartsDatabase::from_csv(
                   "part_number,description,mtbf_h,transient_fit,"
                   "mttr_diagnosis_min,mttr_corrective_min,"
                   "mttr_verification_min\nX,d,notanumber,,,,"),
               std::invalid_argument);
  EXPECT_THROW(PartsDatabase::from_csv(
                   "part_number,description,mtbf_h,transient_fit,"
                   "mttr_diagnosis_min,mttr_corrective_min,"
                   "mttr_verification_min\nX,d,1,,,,\nX,d,2,,,,"),
               std::invalid_argument);
  EXPECT_THROW(PartsDatabase::from_csv(
                   "part_number,description,mtbf_h,transient_fit,"
                   "mttr_diagnosis_min,mttr_corrective_min,"
                   "mttr_verification_min\nX,d,-5,,,,"),
               std::invalid_argument);
  EXPECT_THROW(PartsDatabase::from_csv_file("/no/such/file.csv"),
               std::runtime_error);
}

TEST(PartsDb, CsvRoundTrip) {
  const PartsDatabase db = PartsDatabase::from_csv(kPartsCsv);
  const PartsDatabase again = PartsDatabase::from_csv(db.to_csv());
  EXPECT_EQ(again.size(), db.size());
  EXPECT_DOUBLE_EQ(*again.find("300-0001")->mttr_corrective_min, 20.0);
  EXPECT_FALSE(again.find("300-0001")->mttr_diagnosis_min.has_value());
}

TEST(PartsDb, EnrichesModel) {
  auto model = rascad::spec::parse_model(R"(
diagram "Box" {
  block "Board" { part_number = "501-1234" mtbf = 1 service_response = 4 }
  block "Mystery" { part_number = "999-0000" mtbf = 1000 mttr_corrective = 30 }
  block "Plain" { mtbf = 5000 mttr_corrective = 30 }
}
)");
  const PartsDatabase db = PartsDatabase::from_csv(kPartsCsv);
  const auto report = apply_parts_database(model, db);
  ASSERT_EQ(report.enriched.size(), 1u);
  ASSERT_EQ(report.unknown_parts.size(), 1u);
  const auto& board = model.root().blocks[0];
  EXPECT_DOUBLE_EQ(board.mtbf_h, 250'000.0);   // database wins
  EXPECT_DOUBLE_EQ(board.mttr_total_h(), 75.0 / 60.0);
  EXPECT_EQ(board.description, "System board");
  // Unknown part: untouched.
  EXPECT_DOUBLE_EQ(model.root().blocks[1].mtbf_h, 1000.0);
  // Enriched model is solvable.
  EXPECT_GT(SystemModel::build(model).availability(), 0.99);
}

TEST(DotExport, ChainContainsStatesAndRates) {
  const auto model = SystemModel::build(
      rascad::core::library::midrange_server());
  const auto& entry = model.blocks().front();
  const std::string dot = rascad::core::chain_dot(*entry.chain, "test");
  EXPECT_NE(dot.find("digraph \"test\""), std::string::npos);
  EXPECT_NE(dot.find("\"Ok\""), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=gray80"), std::string::npos);  // down states
  EXPECT_EQ(dot.find('\t'), std::string::npos);
}

TEST(DotExport, RbdTree) {
  const auto model = SystemModel::build(
      rascad::core::library::midrange_server());
  const std::string dot = rascad::core::rbd_dot(*model.tree());
  EXPECT_NE(dot.find("[series]"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
}

TEST(DotExport, SystemClusters) {
  const auto model = SystemModel::build(
      rascad::core::library::entry_server());
  const std::string dot = rascad::core::system_dot(model);
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("Motherboard"), std::string::npos);
}

TEST(Importance, SeriesSystemBasics) {
  const auto model = rascad::spec::parse_model(R"(
diagram "Sys" {
  block "Weak"   { mtbf = 10000  mttr_corrective = 120 service_response = 8 }
  block "Strong" { mtbf = 500000 mttr_corrective = 30  service_response = 4 }
}
)");
  const SystemModel system = SystemModel::build(model);
  const auto imps = rascad::core::block_importance(system);
  ASSERT_EQ(imps.size(), 2u);
  // Sorted by criticality: the weak block dominates.
  EXPECT_EQ(imps[0].block, "Weak");
  EXPECT_GT(imps[0].criticality, imps[1].criticality);
  // For a series system, Birnbaum of block i = product of the others'
  // availabilities.
  EXPECT_NEAR(imps[0].birnbaum, imps[1].availability, 1e-12);
  EXPECT_NEAR(imps[1].birnbaum, imps[0].availability, 1e-12);
  // RAW: failing any series block takes the system down entirely, so it is
  // the same 1/U for every block.
  EXPECT_GT(imps[0].raw, 1.0);
  EXPECT_NEAR(imps[1].raw, imps[0].raw, 1e-9);
  // RRW: removing the weak block's downtime helps much more.
  EXPECT_GT(imps[0].rrw, imps[1].rrw);
  EXPECT_GT(imps[0].rrw, 1.0);
  // Criticalities of a series system sum to ~1 (rare simultaneous faults).
  EXPECT_NEAR(imps[0].criticality + imps[1].criticality, 1.0, 1e-3);
}

TEST(Importance, OverrideValidation) {
  const SystemModel system = SystemModel::build(
      rascad::core::library::entry_server());
  EXPECT_THROW(system.availability_with_override("Entry Server", "Nope", 1.0),
               std::invalid_argument);
  EXPECT_THROW(
      system.availability_with_override("Entry Server", "CPU", 1.5),
      std::invalid_argument);
  const double up =
      system.availability_with_override("Entry Server", "CPU", 1.0);
  const double down =
      system.availability_with_override("Entry Server", "CPU", 0.0);
  EXPECT_GT(up, system.availability());
  EXPECT_DOUBLE_EQ(down, 0.0);  // series system with a dead block
}

TEST(Importance, ElasticitiesHaveExpectedSigns) {
  const auto model = rascad::spec::parse_model(R"(
diagram "Sys" {
  block "Board" { mtbf = 50000 mttr_corrective = 90 service_response = 4 }
}
)");
  const SystemModel system = SystemModel::build(model);
  const auto sens = rascad::core::parameter_sensitivity(system);
  ASSERT_EQ(sens.size(), 1u);
  // Doubling MTBF halves unavailability: elasticity ~ -1.
  EXPECT_NEAR(sens[0].mtbf_elasticity, -1.0, 0.02);
  EXPECT_GT(sens[0].mttr_elasticity, 0.0);
  EXPECT_GT(sens[0].tresp_elasticity, 0.0);
  // MTTR (1.5 h) and Tresp (4 h) split the downtime: elasticities sum
  // to ~ +1.
  EXPECT_NEAR(sens[0].mttr_elasticity + sens[0].tresp_elasticity, 1.0, 0.05);
}

TEST(Importance, SensitivityStepValidation) {
  const SystemModel system = SystemModel::build(
      rascad::core::library::entry_server());
  EXPECT_THROW(rascad::core::parameter_sensitivity(system, 0.0),
               std::invalid_argument);
  EXPECT_THROW(rascad::core::parameter_sensitivity(system, 1.5),
               std::invalid_argument);
}

TEST(Importance, DatacenterRankingIsStable) {
  const SystemModel system = SystemModel::build(
      rascad::core::library::datacenter_system());
  const auto imps = rascad::core::block_importance(system);
  ASSERT_EQ(imps.size(), system.blocks().size());
  for (std::size_t i = 1; i < imps.size(); ++i) {
    EXPECT_GE(imps[i - 1].criticality, imps[i].criticality);
  }
  // In a series hierarchy criticality ranking matches the downtime ranking.
  for (std::size_t i = 1; i < imps.size(); ++i) {
    EXPECT_GE(imps[i - 1].yearly_downtime_min + 1e-9,
              imps[i].yearly_downtime_min);
  }
}

}  // namespace
