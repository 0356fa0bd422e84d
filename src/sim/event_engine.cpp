#include "sim/event_engine.hpp"

#include <algorithm>
#include <memory>
#include <new>

#include "sim/block_process.hpp"
#include "sim/rng.hpp"

namespace rascad::sim {

namespace {

/// One schedulable: a block process, its owned RNG stream, and the next
/// down window it has pending.
struct Schedulable {
  Xoshiro256 rng;
  BlockEventProcess process;
  Interval next{0.0, 0.0};

  Schedulable(const spec::BlockSpec& block, const spec::GlobalParams& globals,
              double horizon, std::uint64_t seed, std::uint64_t stream,
              const BlockSimOptions& opts)
      : rng(seed, stream), process(block, globals, horizon, rng, opts) {}

  /// Rewind for the next replication: reseed the RNG stream and reset the
  /// process clocks. Bitwise identical to constructing fresh, minus the
  /// rate derivation and family classification.
  void reset(std::uint64_t seed, std::uint64_t stream) {
    rng.reseed(seed, stream);
    process.reset();
  }
};

/// Min-heap entry: the pending window's start time, ties broken by block
/// index so the pop order is a total order (determinism across platforms;
/// the union arithmetic itself is tie-order insensitive).
struct HeapEntry {
  double start;
  std::uint32_t index;
};

struct HeapLater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.start != b.start) return a.start > b.start;
    return a.index > b.index;
  }
};

bool heap_earlier(const HeapEntry& a, const HeapEntry& b) {
  if (a.start != b.start) return a.start < b.start;
  return a.index < b.index;
}

/// Restore the min-heap invariant after the root was replaced in place.
/// One sift-down instead of the pop_heap + push_heap pair — the hot loop
/// reschedules the popped block on almost every event, so replacing the
/// root halves the heap traffic. Pop order (and therefore the union
/// arithmetic) is unchanged: it is fixed by the (start, index) total
/// order, not by how the heap maintains it.
void heap_sift_down(std::vector<HeapEntry>& h) {
  const std::size_t n = h.size();
  const HeapEntry v = h[0];
  std::size_t i = 0;
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && heap_earlier(h[c + 1], h[c])) ++c;
    if (!heap_earlier(h[c], v)) break;
    h[i] = h[c];
    i = c;
  }
  h[i] = v;
}

}  // namespace

struct EventWorkspace::Impl {
  std::vector<std::unique_ptr<Schedulable>> procs;
  std::vector<HeapEntry> heap;
  // What the schedulables were built against. Processes hold references
  // into the model, so they are only reusable (via reset) when the caller
  // passes the same blocks/globals/options/horizon again — the streaming
  // driver's case. Anything else falls back to a full rebuild.
  std::vector<const spec::BlockSpec*> built_blocks;
  const spec::GlobalParams* built_globals = nullptr;
  const BlockSimOptions* built_opts = nullptr;
  double built_horizon = 0.0;
};

EventWorkspace::EventWorkspace() : impl_(std::make_unique<Impl>()) {}
EventWorkspace::~EventWorkspace() = default;
EventWorkspace::EventWorkspace(EventWorkspace&&) noexcept = default;
EventWorkspace& EventWorkspace::operator=(EventWorkspace&&) noexcept = default;

SystemSimResult simulate_replication_events(
    const std::vector<const spec::BlockSpec*>& blocks,
    const spec::GlobalParams& globals, double horizon, std::uint64_t seed,
    const BlockSimOptions& opts, std::vector<double>* window_minutes,
    EventWorkspace* ws) {
  SystemSimResult result;
  result.horizon = horizon;

  // Buffers come from the caller's workspace when one is provided, so
  // repeated replications reuse the schedulable slots and heap storage.
  EventWorkspace local;
  EventWorkspace::Impl& scratch = ws ? *ws->impl_ : *local.impl_;
  std::vector<std::unique_ptr<Schedulable>>& procs = scratch.procs;
  std::vector<HeapEntry>& heap = scratch.heap;
  heap.clear();
  heap.reserve(blocks.size());

  // Processes are constructed in block order, so block i always draws from
  // stream i + 1. When the workspace was last built against the same
  // model (the streaming driver replays one model a million times), the
  // schedulables are rewound in place — no rate derivation, no family
  // classification, no allocation.
  const bool reusable =
      scratch.built_globals == &globals && scratch.built_opts == &opts &&
      scratch.built_horizon == horizon && scratch.built_blocks == blocks;
  if (reusable) {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      procs[i]->reset(seed, static_cast<std::uint64_t>(i) + 1);
      if (procs[i]->process.next_window(procs[i]->next)) {
        heap.push_back({procs[i]->next.start, static_cast<std::uint32_t>(i)});
      }
    }
  } else {
    procs.clear();
    procs.reserve(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      procs.push_back(std::make_unique<Schedulable>(
          *blocks[i], globals, horizon, seed,
          static_cast<std::uint64_t>(i) + 1, opts));
      if (procs[i]->process.next_window(procs[i]->next)) {
        heap.push_back({procs[i]->next.start, static_cast<std::uint32_t>(i)});
      }
    }
    scratch.built_blocks = blocks;
    scratch.built_globals = &globals;
    scratch.built_opts = &opts;
    scratch.built_horizon = horizon;
  }
  std::make_heap(heap.begin(), heap.end(), HeapLater{});

  // Live union sweep: the window currently open, extended while pops
  // overlap it. Identical arithmetic to merged_length's sort+merge — same
  // visit order (sorted starts), same max-of-ends extension, same
  // accumulation order of closed windows into down_time.
  bool open = false;
  double cur_start = 0.0;
  double cur_end = 0.0;
  const auto close_window = [&] {
    result.down_time += cur_end - cur_start;
    ++result.outages;
    if (window_minutes) window_minutes->push_back((cur_end - cur_start) * 60.0);
  };

  while (!heap.empty()) {
    const HeapEntry top = heap.front();
    Schedulable& s = *procs[top.index];
    const Interval w = s.next;
    if (!open) {
      open = true;
      cur_start = w.start;
      cur_end = w.end;
    } else if (w.start <= cur_end) {
      cur_end = std::max(cur_end, w.end);
    } else {
      close_window();
      cur_start = w.start;
      cur_end = w.end;
    }
    // Advance this block to its next window and reschedule it by
    // replacing the root in place (one sift-down); only an exhausted
    // block actually shrinks the heap.
    if (s.process.next_window(s.next)) {
      heap.front() = {s.next.start, top.index};
    } else {
      heap.front() = heap.back();
      heap.pop_back();
      if (heap.empty()) break;
    }
    heap_sift_down(heap);
  }
  if (open) close_window();

  for (const auto& proc : procs) {
    const BlockTallies& t = proc->process.tallies();
    result.permanent_faults += t.permanent_faults;
    result.transient_faults += t.transient_faults;
    result.service_errors += t.service_errors;
    result.events += t.events;
  }
  return result;
}

}  // namespace rascad::sim
