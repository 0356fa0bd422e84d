// Chunked data-parallel loops over a shared fixed-size worker pool.
//
// Determinism contract: parallel_for(n, fn) calls fn(i) exactly once for
// every i in [0, n), and callers write results into pre-sized containers
// by index — never accumulate in completion order. Under that discipline
// the outcome is bit-identical for every thread count, including the
// serial threads == 1 fallback, which runs fn inline on the calling
// thread without touching the pool.
//
// Thread-count resolution, in priority order: ParallelOptions::threads,
// then the RASCAD_THREADS environment variable, then
// std::thread::hardware_concurrency(). The calling thread always
// participates in the work, so nested parallel loops cannot deadlock
// even when every pool worker is busy.
//
// Exceptions thrown by fn are captured per index and the one from the
// lowest index is rethrown on the calling thread after the loop
// completes (every index still runs), so error reporting is
// deterministic too. The total number of failed indices is also counted
// (ParallelStatus / parallel_for_status), so degraded callers can report
// how much work was lost instead of just the first error.
//
// Cancellation: when ParallelOptions::cancel carries a token, workers
// stop claiming chunks once it fires — already-started chunk bodies run
// to completion (bodies poll their own child tokens to stop sooner), and
// the skipped-index count plus the stop reason land in ParallelStatus.
// parallel_for turns a partial loop into SolveError(kCancelled /
// kDeadlineExceeded); parallel_for_status returns it for graceful
// degradation.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <limits>

#include "exec/thread_pool.hpp"
#include "robust/cancel.hpp"

namespace rascad::exec {

struct ParallelOptions {
  /// Worker threads to aim for; 0 means default_thread_count(). 1 forces
  /// the serial inline path.
  std::size_t threads = 0;
  /// Cooperative stop for the loop itself: once fired, no further chunk is
  /// claimed. Inert by default. Forward the same token (or a child) into
  /// the body's solves for intra-chunk cancellation.
  robust::CancelToken cancel;
};

/// Outcome of one parallel loop: how many indices ran, failed, or were
/// never started. `first_error` holds the exception from the lowest failed
/// index (the deterministic one parallel_for would rethrow).
struct ParallelStatus {
  std::size_t failed = 0;   // indices whose body threw
  std::size_t skipped = 0;  // indices never run (loop cancelled first)
  std::size_t first_failed_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr first_error;
  /// Why indices were skipped; kNone when the loop ran to the end.
  robust::StopReason stop = robust::StopReason::kNone;

  bool complete() const noexcept { return failed == 0 && skipped == 0; }
};

/// std::thread::hardware_concurrency(), never 0.
std::size_t hardware_thread_count() noexcept;

/// RASCAD_THREADS environment override (positive integer), else
/// hardware_thread_count(). Malformed values are ignored.
std::size_t default_thread_count() noexcept;

/// The process-wide pool used by parallel_for. Created on first use with
/// enough workers for an 8-way loop even on small machines (idle workers
/// just sleep on the queue).
ThreadPool& global_pool();

/// Runs fn(i) for every i in [0, n), chunked across the pool. Rethrows the
/// lowest failed index's exception; a loop cut short by opts.cancel (and
/// otherwise error-free) raises SolveError(kCancelled/kDeadlineExceeded).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  const ParallelOptions& opts = {});

/// parallel_for that never throws body errors: runs what it can and
/// returns the per-index accounting, for callers that degrade gracefully
/// instead of failing the whole loop.
ParallelStatus parallel_for_status(
    std::size_t n, const std::function<void(std::size_t)>& fn,
    const ParallelOptions& opts = {});

}  // namespace rascad::exec
