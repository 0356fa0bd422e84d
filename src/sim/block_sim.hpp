// Semantic (event-level) simulation of one MG block.
//
// This simulator replays the paper's Section 2 narrative directly —
// faults, latency, automatic recovery, SPF windows, logistics, repair,
// service errors, reintegration — without ever looking at the generated
// Markov chain, so its availability estimate is an independent oracle for
// the generator (the role the E10000 field data plays in the paper's
// Section 5). With `exponential_everything` the estimate converges to the
// chain's analytic result; with realistic non-exponential repair/logistic
// distributions it quantifies how much the exponential assumption matters.
//
// The block semantics themselves live in sim/block_process.hpp as a
// resumable event process; this header is the materializing entry point
// (full interval vectors per run), for single-block inspection and as the
// input to the sort+merge oracle the event engine is checked against.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/distribution.hpp"
#include "exec/parallel.hpp"
#include "sim/block_process.hpp"
#include "sim/stats.hpp"
#include "spec/ast.hpp"

namespace rascad::sim {

struct BlockSimResult {
  double horizon = 0.0;
  double down_time = 0.0;
  std::size_t permanent_faults = 0;
  std::size_t transient_faults = 0;
  std::size_t latent_faults = 0;
  std::size_t spf_events = 0;
  std::size_t service_errors = 0;
  std::size_t repairs_completed = 0;
  std::size_t outages = 0;     // number of distinct down windows
  std::uint64_t events = 0;    // scheduled events consumed
  std::vector<Interval> down_intervals;

  double availability() const {
    return horizon > 0.0 ? 1.0 - down_time / horizon : 1.0;
  }
};

/// Simulates one block over [0, horizon] hours. Throws
/// std::invalid_argument for specs the simulator cannot express (same
/// preconditions as the generator).
BlockSimResult simulate_block(const spec::BlockSpec& block,
                              const spec::GlobalParams& globals,
                              double horizon, dist::RandomSource& rng,
                              const BlockSimOptions& opts = {});

/// Replicated availability estimate for one block. Replications run in
/// parallel (`par`) with deterministic (base_seed, replication_index)
/// seeding and index-ordered accumulation: the statistics are
/// bit-identical for every thread count.
SampleStats replicate_block_availability(const spec::BlockSpec& block,
                                         const spec::GlobalParams& globals,
                                         double horizon,
                                         std::size_t replications,
                                         std::uint64_t base_seed,
                                         const BlockSimOptions& opts = {},
                                         const exec::ParallelOptions& par = {});

}  // namespace rascad::sim
