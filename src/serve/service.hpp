// rascad_serve: a long-running solve service over a Unix-domain socket.
//
// The daemon the paper's "engineering service" framing asks for: instead
// of one CLI invocation per question, a persistent process accepts
// spec-solve, parameter-sweep, and Monte-Carlo-simulate requests, shares
// ONE warm SolveCache across all of them (the second request for a model
// family hits memoized block solves no matter which connection asks), and
// degrades gracefully under per-request deadlines.
//
// Anatomy of a request:
//
//   reader thread        admission            exec pool worker
//   ─────────────        ─────────            ────────────────
//   read_frame ──────►  bounded in-flight ──► run under a request-scoped
//                       count; full ⇒ reply   CancelToken (client deadline,
//                       kRetryAfter with a    child of the service token),
//                       retry hint            a StallWatchdog guard, and a
//                                             "serve.request" obs span;
//                                             writes its response frames
//                                             (chunks + terminal) itself
//
// A connection owns one thread, its reader. Every reply frame is written by
// the thread that made it (a pool worker, the reader, or a watch thread),
// under the connection's write lock, one whole frame per hold. The kernel
// socket buffer is the only queue: admission rejects with retry-after when
// the service is saturated, and a client that stops reading blocks only the
// thread writing to it, for at most the socket's 30 s send timeout.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/solve_cache.hpp"
#include "robust/cancel.hpp"
#include "serve/protocol.hpp"

namespace rascad::serve {

struct ServiceConfig {
  /// Filesystem path of the Unix-domain listening socket. Bound (and any
  /// stale file unlinked) by start(); unlinked again by stop().
  std::string socket_path;
  /// Admitted-but-unfinished request cap: the bounded queue. A request
  /// arriving while `queue_capacity` requests are in flight is rejected
  /// with kRetryAfter instead of queued unboundedly.
  std::size_t queue_capacity = 64;
  /// Hint carried in kRetryAfter frames.
  double retry_after_ms = 25.0;
  /// Deadline applied to requests that do not carry their own (0 = none).
  double default_deadline_ms = 0.0;
  /// Capacity of each table (block solves, sampled curves) of the
  /// shared-across-requests SolveCache.
  std::size_t cache_capacity = cache::SolveCache::kDefaultCapacity;
  /// When non-empty and observability is enabled, the trace is drained and
  /// appended here after every request — the per-request dump path, safe
  /// only because dump/drain no longer clobbers concurrent recording.
  std::string obs_append_path;
};

/// Aggregate service health for the kStats verb and tests.
struct ServiceStats {
  std::uint64_t accepted = 0;   // requests admitted past the queue bound
  std::uint64_t rejected = 0;   // kRetryAfter responses
  std::uint64_t completed = 0;  // terminal kResult/kPong responses
  std::uint64_t failed = 0;     // terminal kError responses
  std::uint64_t scrapes = 0;    // kMetrics replies + kWatch chunks sent
  std::size_t inflight = 0;     // admitted, not yet terminal
  std::size_t watchers = 0;     // live kWatch scraper sessions
  std::size_t queue_capacity = 0;
  cache::CacheCounters cache_blocks;  // shared-cache block table
  cache::CacheCounters cache_curves;  // shared-cache curve table
};

class Service {
 public:
  explicit Service(ServiceConfig config);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Binds, listens, and spawns the acceptor. Throws std::runtime_error on
  /// socket errors. Returns with the socket accepting connections.
  void start();

  /// Graceful shutdown: stop admitting, wait for in-flight requests to
  /// finish (they are NOT cancelled — the stall watchdog flags any that
  /// wedge), drain the exec pool, end the watch streams, shut every
  /// connection down and wait for its reader, unlink the socket.
  /// Idempotent. Must not be called from a service thread.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Blocks until a client sends kShutdown or `timeout_ms` elapses
  /// (timeout_ms <= 0: wait forever). True when shutdown was requested.
  bool wait_shutdown_requested(double timeout_ms = 0.0);

  bool shutdown_requested() const noexcept {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// One consistent stats snapshot (cache counters lock all shards).
  ServiceStats stats() const;

  /// The cross-request memo table.
  cache::SolveCache& cache() noexcept { return cache_; }

  const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  struct Session;

  void accept_loop();
  void reader_loop(const std::shared_ptr<Session>& session);
  void handle_frame(const std::shared_ptr<Session>& session, Frame frame);
  void run_request(const std::shared_ptr<Session>& session, Frame frame);
  void finish_request(bool failed);

  // Verb handlers; return the terminal frame (chunks are pushed directly).
  Frame do_ping(const Frame& req, const robust::CancelToken& token);
  Frame do_solve(const Frame& req, const robust::CancelToken& token);
  Frame do_sweep(const std::shared_ptr<Session>& session, const Frame& req,
                 const robust::CancelToken& token);
  Frame do_simulate(const Frame& req, const robust::CancelToken& token);
  Frame do_stats(const Frame& req);
  /// kMetrics, answered inline on the reader thread (no pool slot).
  Frame do_metrics(const std::shared_ptr<Session>& session, const Frame& req);
  /// Body of one kWatch scraper thread (see handle_frame for spawning).
  void watch_loop(std::shared_ptr<Session> session, Frame req);

  ServiceConfig cfg_;
  cache::SolveCache cache_;
  /// Parent of every request token; lives as long as the service.
  robust::CancelToken lifetime_ = robust::CancelToken::manual();

  int listen_fd_ = -1;
  std::thread acceptor_;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;  // inflight_ or sessions_ hit zero
  std::condition_variable shutdown_cv_;
  /// One entry per live reader thread. The reader holds its session and
  /// erases the entry under mu_ before letting go, so every pointer here is
  /// alive while mu_ is held.
  std::vector<Session*> sessions_;
  std::size_t inflight_ = 0;
  bool stopping_ = false;

  std::mutex obs_append_mu_;

  // Scraper (kWatch) coordination: watcher threads are detached — each
  // holds its session shared_ptr — so stop() synchronizes on this count
  // instead of joining. scrapers_stop_ winds them down promptly (the cv
  // cuts the interval sleep short); it is separate from lifetime_ on
  // purpose: shutdown drains solve requests, it does not cancel them, and
  // scrapers must stop *first* so their terminal frames are written before
  // the sockets are shut down.
  mutable std::mutex scrapers_mu_;
  std::condition_variable scrapers_cv_;
  std::size_t active_watchers_ = 0;
  std::atomic<bool> scrapers_stop_{false};

  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> scrapes_{0};
};

}  // namespace rascad::serve
