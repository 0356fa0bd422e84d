#include "exec/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/solve_error.hpp"

namespace rascad::exec {

namespace {

/// A few chunks per worker: heterogeneous bodies (sweep points with
/// different chain sizes) balance better than one chunk per thread.
constexpr std::size_t kChunksPerThread = 4;

/// One parallel_for episode. Heap-allocated and shared with the helper
/// tasks because a helper may wake up after the loop already finished; a
/// late helper only reads the atomics, never the caller's stack.
struct Batch {
  std::size_t n = 0;
  std::size_t chunks = 0;
  std::size_t chunk_size = 0;
  /// Valid until `pending` reaches zero (the caller's wait keeps the
  /// std::function alive until every chunk body has returned).
  const std::function<void(std::size_t)>* fn = nullptr;

  /// The submitting scope's span id: installed on whichever thread runs a
  /// chunk, so worker-side spans parent under the logical caller instead
  /// of dangling as roots. 0 when observability is disabled.
  obs::SpanId trace_parent = 0;

  /// Loop-level stop token: once fired, drain() skips remaining chunks.
  robust::CancelToken cancel;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> pending{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> skipped{0};
  std::mutex mu;
  std::condition_variable done;
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();

  void run_chunk(std::size_t c) {
    const obs::ParentScope trace_scope(trace_parent);
    const bool observe = obs::enabled();
    const auto chunk_start =
        observe ? std::chrono::steady_clock::now()
                : std::chrono::steady_clock::time_point{};
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    for (std::size_t i = lo; i < hi; ++i) {
      try {
        (*fn)(i);
      } catch (...) {
        failed.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu);
        // Lowest index wins so the rethrown error does not depend on
        // timing, and the remaining indices still run.
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
    if (observe) {
      static obs::Histogram& task_ms =
          obs::Registry::global().histogram("exec.task_ms");
      task_ms.observe_ms(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - chunk_start)
                             .count());
    }
    if (pending.fetch_sub(1) == 1) {
      // Taking the lock pairs with the caller's predicate check: the
      // notification cannot fire between its check and its wait.
      std::lock_guard<std::mutex> lock(mu);
      done.notify_all();
    }
  }

  /// Counts a chunk's indices as skipped and retires it without running
  /// the body.
  void skip_chunk(std::size_t c) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    skipped.fetch_add(hi - lo, std::memory_order_relaxed);
    if (pending.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(mu);
      done.notify_all();
    }
  }

  /// Claims chunks in index order until none are left. A fired stop token
  /// turns every not-yet-claimed chunk into a skip; chunk bodies already
  /// running are never interrupted here (they observe their own tokens).
  void drain() {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= chunks) return;
      if (cancel.valid() && cancel.stop_requested()) {
        skip_chunk(c);
      } else {
        run_chunk(c);
      }
    }
  }
};

std::size_t env_thread_override() noexcept {
  const char* s = std::getenv("RASCAD_THREADS");
  if (!s || !*s) return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0' || v == 0) return 0;
  return static_cast<std::size_t>(v);
}

}  // namespace

std::size_t hardware_thread_count() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t default_thread_count() noexcept {
  const std::size_t env = env_thread_override();
  return env != 0 ? env : hardware_thread_count();
}

ThreadPool& global_pool() {
  // Workers = helpers for at least an 8-way loop; the caller is the
  // final participant, hence the -1.
  static ThreadPool pool(std::max<std::size_t>(default_thread_count(), 8) - 1);
  return pool;
}

namespace {

/// Shared driver behind parallel_for / parallel_for_status: runs the loop
/// and reports per-index accounting without throwing body errors.
ParallelStatus run_parallel(std::size_t n,
                            const std::function<void(std::size_t)>& fn,
                            const ParallelOptions& opts) {
  ParallelStatus status;
  if (n == 0) return status;
  if (!fn) throw std::invalid_argument("parallel_for: null function");
  std::size_t threads =
      opts.threads != 0 ? opts.threads : default_thread_count();
  threads = std::min(threads, n);
  obs::Span loop_span("exec.parallel_for");
  if (loop_span.active()) {
    loop_span.set_detail("n=" + std::to_string(n) +
                         " threads=" + std::to_string(threads));
  }
  if (threads <= 1) {
    // Same contract as the parallel path: every index runs (unless the
    // token fires first), and the exception from the lowest index is the
    // one that propagates.
    for (std::size_t i = 0; i < n; ++i) {
      if (opts.cancel.valid() && opts.cancel.stop_requested()) {
        status.skipped = n - i;
        status.stop = opts.cancel.reason();
        break;
      }
      try {
        fn(i);
      } catch (...) {
        ++status.failed;
        if (!status.first_error) {
          status.first_error = std::current_exception();
          status.first_failed_index = i;
        }
      }
    }
    return status;
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->chunk_size =
      (n + threads * kChunksPerThread - 1) / (threads * kChunksPerThread);
  batch->chunks = (n + batch->chunk_size - 1) / batch->chunk_size;
  batch->fn = &fn;
  batch->trace_parent = loop_span.id();
  batch->cancel = opts.cancel;
  batch->pending.store(batch->chunks);

  ThreadPool& pool = global_pool();
  const std::size_t helpers = std::min(threads - 1, pool.worker_count());
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([batch] { batch->drain(); });
  }
  batch->drain();

  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done.wait(lock, [&] { return batch->pending.load() == 0; });
  status.failed = batch->failed.load();
  status.skipped = batch->skipped.load();
  status.first_failed_index = batch->error_index;
  // Move, don't copy: the caller must end up owning the last reference to
  // the captured exception. Otherwise whichever pool worker destroys the
  // final Batch ref also performs the final exception_ptr release, and that
  // refcount lives in (uninstrumented) libstdc++ internals where TSan
  // cannot observe the synchronization.
  status.first_error = std::move(batch->error);
  if (status.skipped > 0) status.stop = opts.cancel.reason();
  return status;
}

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  const ParallelOptions& opts) {
  const ParallelStatus status = run_parallel(n, fn, opts);
  // Body errors keep precedence over cancellation so existing error
  // reporting (lowest failed index) is unchanged by adding a token.
  if (status.first_error) std::rethrow_exception(status.first_error);
  if (status.skipped > 0) {
    throw robust::SolveError(
        robust::cause_from(status.stop), "parallel_for",
        std::to_string(status.skipped) + " of " + std::to_string(n) +
            " indices skipped (" + robust::to_string(status.stop) + ")");
  }
}

ParallelStatus parallel_for_status(std::size_t n,
                                   const std::function<void(std::size_t)>& fn,
                                   const ParallelOptions& opts) {
  return run_parallel(n, fn, opts);
}

}  // namespace rascad::exec
