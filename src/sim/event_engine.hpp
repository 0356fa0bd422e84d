// Schedulable event engine for system-level Monte-Carlo replications.
//
// The engine runs each block's process (sim/block_process.hpp) as a
// schedulable behind a binary-heap event queue keyed on monotone
// simulated time: the heap holds each block's next pending down window;
// popping the earliest one advances that block just far enough to produce
// its next window, while a live open-window sweep accumulates system
// downtime directly. Memory is O(blocks) per replication and no block's
// down intervals are ever materialized.
//
// Determinism contract: the heap pops windows in globally sorted
// (start, block index) order and each block draws from its own
// (seed, position + 1) RNG stream, so a replication is a pure function of
// (model, horizon, seed, options). Its downtime equals, bitwise, the
// sort+merge union (merged_length) of the windows simulate_block produces
// for the same streams; sim_stream_test checks that oracle and pins golden
// values.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/system_sim.hpp"

namespace rascad::sim {

/// Reusable per-caller scratch for simulate_replication_events: the
/// schedulable slots and the event heap survive across replications, so
/// the hot loop allocates nothing after the first call. Not thread-safe —
/// one workspace per concurrent caller (the streaming driver keeps one
/// per batch slot). Never affects results; only allocation traffic.
class EventWorkspace {
 public:
  EventWorkspace();
  ~EventWorkspace();
  EventWorkspace(EventWorkspace&&) noexcept;
  EventWorkspace& operator=(EventWorkspace&&) noexcept;
  EventWorkspace(const EventWorkspace&) = delete;
  EventWorkspace& operator=(const EventWorkspace&) = delete;

 private:
  friend SystemSimResult simulate_replication_events(
      const std::vector<const spec::BlockSpec*>&, const spec::GlobalParams&,
      double, std::uint64_t, const BlockSimOptions&, std::vector<double>*,
      EventWorkspace*);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One replication over pre-collected failing blocks — validation and
/// block collection hoisted out of the hot loop (the streaming driver
/// calls this a million times per run). Per-block RNG streams are seeded
/// (seed, block position + 1). When `window_minutes` is non-null, every
/// merged system down window's length (minutes) is appended in time
/// order — the feed for streaming outage-duration quantiles. Passing the
/// same `ws` across calls reuses its buffers (identical results, no
/// per-replication allocation).
SystemSimResult simulate_replication_events(
    const std::vector<const spec::BlockSpec*>& blocks,
    const spec::GlobalParams& globals, double horizon, std::uint64_t seed,
    const BlockSimOptions& opts, std::vector<double>* window_minutes = nullptr,
    EventWorkspace* ws = nullptr);

}  // namespace rascad::sim
