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
// deterministic too.
//
// Cancellation: when ParallelOptions::cancel carries a token, workers
// stop claiming chunks once it fires — already-started chunk bodies run
// to completion (bodies poll their own child tokens to stop sooner), and
// a loop cut short raises SolveError(kCancelled / kDeadlineExceeded).
// Callers that degrade instead of throwing leave the token out of the
// loop options and check it at the top of the body.
#pragma once

#include <cstddef>
#include <functional>

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

}  // namespace rascad::exec
