// Last-mile coverage: printing/streaming paths, file-based parsing,
// non-exponential simulation of the complex chain families, DOT export of
// the cluster chain, and the outage-frequency measure.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/export_dot.hpp"
#include "core/library.hpp"
#include "gmb/parser.hpp"
#include "markov/transient.hpp"
#include "mg/generator.hpp"
#include "mg/measures.hpp"
#include "sim/block_sim.hpp"
#include "sim/rng.hpp"
#include "spec/parser.hpp"
#include "spec/writer.hpp"

namespace {

using rascad::spec::BlockSpec;
using rascad::spec::GlobalParams;
using rascad::spec::Transparency;

/// RAII temp file for the file-based parser paths.
class TempFile {
 public:
  explicit TempFile(const std::string& contents) {
    path_ = std::string(::testing::TempDir()) + "rascad_test_" +
            std::to_string(counter_++) + ".tmp";
    std::ofstream out(path_);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int TempFile::counter_ = 0;

TEST(Printing, CtmcStreamOperator) {
  rascad::markov::CtmcBuilder b;
  const auto up = b.add_state("Up", 1.0);
  const auto down = b.add_state("Down", 0.0);
  b.add_transition(up, down, 0.5);
  b.add_transition(down, up, 2.0);
  std::ostringstream os;
  os << b.build();
  const std::string text = os.str();
  EXPECT_NE(text.find("states (2):"), std::string::npos);
  EXPECT_NE(text.find("Up -> Down  rate=0.5"), std::string::npos);
  EXPECT_NE(text.find("reward=1"), std::string::npos);
}

TEST(Printing, RbdStreamOperator) {
  const auto tree = rascad::rbd::RbdNode::parallel(
      "pair", {rascad::rbd::RbdNode::leaf("a", 0.9),
               rascad::rbd::RbdNode::leaf("b", 0.8)});
  std::ostringstream os;
  os << *tree;
  EXPECT_NE(os.str().find("[parallel]"), std::string::npos);
  EXPECT_NE(os.str().find("A=0.9"), std::string::npos);
}

TEST(FileIo, RscFileRoundTrip) {
  const auto original = rascad::core::library::entry_server();
  const TempFile file(rascad::spec::to_rsc_string(original));
  const auto reparsed = rascad::spec::parse_model_file(file.path());
  EXPECT_EQ(reparsed.title, original.title);
  EXPECT_EQ(reparsed.diagrams.size(), original.diagrams.size());
}

TEST(FileIo, GmbFile) {
  const TempFile file(R"(
markov "m" {
  state "Up" reward = 1
  state "Down" reward = 0
  arc "Up" "Down" rate = 0.01
  arc "Down" "Up" rate = 1
}
)");
  rascad::gmb::Workspace ws;
  rascad::gmb::parse_file_into(file.path(), ws);
  EXPECT_TRUE(ws.contains("m"));
  EXPECT_THROW(rascad::gmb::parse_file_into("/no/such.gmb", ws),
               std::runtime_error);
}

TEST(NonExponentialSim, Type4AndClusterStillRun) {
  GlobalParams g;
  rascad::sim::BlockSimOptions opts;
  opts.exponential_everything = false;

  BlockSpec t4;
  t4.name = "iob";
  t4.quantity = 2;
  t4.min_quantity = 1;
  t4.mtbf_h = 2'000.0;
  t4.transient_fit = 50'000.0;
  t4.mttr_corrective_min = 60.0;
  t4.service_response_h = 4.0;
  t4.p_correct_diagnosis = 0.9;
  t4.recovery = Transparency::kNontransparent;
  t4.ar_time_min = 6.0;
  t4.repair = Transparency::kNontransparent;
  t4.reintegration_min = 10.0;
  rascad::sim::Xoshiro256 rng(11);
  const auto r = rascad::sim::simulate_block(t4, g, 100'000.0, rng, opts);
  EXPECT_GT(r.permanent_faults, 10u);
  EXPECT_GT(r.down_time, 0.0);
  EXPECT_LT(r.availability(), 1.0);

  BlockSpec ps = t4;
  ps.name = "pair";
  ps.mode = rascad::spec::RedundancyMode::kPrimaryStandby;
  ps.failover_time_min = 3.0;
  ps.p_failover = 0.95;
  ps.t_spf_min = 30.0;
  rascad::sim::Xoshiro256 rng2(12);
  const auto r2 = rascad::sim::simulate_block(ps, g, 100'000.0, rng2, opts);
  EXPECT_GT(r2.permanent_faults, 10u);
  EXPECT_LT(r2.availability(), 1.0);
}

TEST(DotExport, PrimaryStandbyChain) {
  GlobalParams g;
  BlockSpec ps;
  ps.name = "pair";
  ps.quantity = 2;
  ps.min_quantity = 1;
  ps.mode = rascad::spec::RedundancyMode::kPrimaryStandby;
  ps.mtbf_h = 30'000.0;
  ps.mttr_corrective_min = 60.0;
  ps.service_response_h = 4.0;
  ps.failover_time_min = 3.0;
  ps.p_failover = 0.95;
  ps.t_spf_min = 30.0;
  const auto model = rascad::mg::generate(ps, g);
  const std::string dot = rascad::core::chain_dot(model.chain, "cluster");
  EXPECT_NE(dot.find("\"Failover\""), std::string::npos);
  EXPECT_NE(dot.find("\"BothDown\""), std::string::npos);
}

TEST(Measures, OutageFrequency) {
  GlobalParams g;
  BlockSpec b;
  b.name = "board";
  b.quantity = 1;
  b.min_quantity = 1;
  b.mtbf_h = 8'760.0;  // one fault a year
  b.mttr_corrective_min = 60.0;
  b.service_response_h = 4.0;
  const auto model = rascad::mg::generate(b, g);
  const auto m = rascad::mg::compute_measures(model, g);
  // ~1 outage per year, shaved by the down-time fraction.
  EXPECT_NEAR(m.outages_per_year, 1.0, 0.01);
  EXPECT_NEAR(m.outages_per_year,
              m.eq_failure_rate * m.availability * 8760.0, 1e-12);
}

TEST(Transient, IntervalAvailabilityRejectsNonPositiveHorizon) {
  rascad::markov::CtmcBuilder b;
  const auto up = b.add_state("Up", 1.0);
  const auto down = b.add_state("Down", 0.0);
  b.add_transition(up, down, 0.1);
  b.add_transition(down, up, 1.0);
  const auto chain = b.build();
  const auto pi0 = rascad::markov::point_mass(chain, up);
  EXPECT_THROW(rascad::markov::interval_availability(chain, pi0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(rascad::markov::interval_availability(chain, pi0, -5.0),
               std::invalid_argument);
}

TEST(SmpRefinement, DeepChainTracksCtmcAtScale) {
  GlobalParams g;
  BlockSpec b;
  b.name = "wide";
  b.quantity = 6;
  b.min_quantity = 2;
  b.mtbf_h = 100'000.0;
  b.transient_fit = 1'000.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.p_correct_diagnosis = 0.95;
  b.p_latent_fault = 0.05;
  b.mttdlf_h = 48.0;
  b.recovery = Transparency::kNontransparent;
  b.ar_time_min = 6.0;
  b.p_spf = 0.01;
  b.t_spf_min = 30.0;
  b.repair = Transparency::kTransparent;
  const double u_smp = 1.0 - rascad::mg::smp_availability(b, g);
  const auto model = rascad::mg::generate(b, g);
  const auto r = rascad::markov::solve_steady_state(model.chain);
  const double u_ctmc =
      1.0 - rascad::markov::expected_reward(model.chain, r.pi);
  EXPECT_NEAR(u_smp / u_ctmc, 1.0, 0.01);
}

}  // namespace
