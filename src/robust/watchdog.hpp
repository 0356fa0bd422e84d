// Stall watchdog: flags solves that fail to observe their cancel token.
//
// Cancellation here is cooperative — a stop request only takes effect when
// the running code reaches a checkpoint. A solver stuck inside a kernel
// (or a stalling post-solve test hook) never reaches one, and the request appears
// to hang. The watchdog makes that visible: register a token with a
// latency budget, and a single background thread polls registered tokens;
// any token that has stopped but remains unobserved past its budget is
// flagged once — robust.stalled counter plus a robust.stall trace event
// naming the work.
//
// The watchdog polls with stop_requested_silent(), so its own monitoring
// never counts as the workload observing the stop.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "robust/cancel.hpp"

namespace rascad::robust {

class StallWatchdog {
 public:
  /// Process-wide instance; the poll thread starts lazily on first watch.
  static StallWatchdog& global();

  /// RAII registration: watches `token` until the guard is destroyed.
  /// If the token stops and remains unobserved for more than `budget_ms`,
  /// the stall is flagged (once per registration).
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept;
    Guard& operator=(Guard&& other) noexcept;
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard();

   private:
    friend class StallWatchdog;
    Guard(StallWatchdog* owner, std::uint64_t id);
    StallWatchdog* owner_ = nullptr;
    std::uint64_t id_ = 0;
  };

  /// Registers `token` for monitoring. `what` names the work in the stall
  /// event. Inert tokens return an inactive guard.
  Guard watch(const CancelToken& token, double budget_ms,
              std::string what);

  /// Stalls flagged since process start (mirrors the robust.stalled
  /// counter without requiring a metrics snapshot).
  std::uint64_t stall_count() const;

  /// Poll scans performed over non-empty entry lists. With no registered
  /// guards the poll thread parks on the condition variable instead of
  /// spinning, so this number stops growing — the property the idle-park
  /// regression test pins down.
  std::uint64_t scan_count() const;

  /// Poll period; tests shrink it to keep stall budgets small.
  void set_poll_interval_ms(double ms);

  ~StallWatchdog();

 private:
  StallWatchdog() = default;
  void unwatch(std::uint64_t id);
  void loop();
  void flag(const std::string& what, double unobserved_ms);

  struct Entry {
    std::uint64_t id = 0;
    CancelToken token;
    double budget_ms = 0.0;
    std::string what;
    bool flagged = false;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;
  std::thread thread_;
  bool running_ = false;
  bool shutdown_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t stalls_ = 0;
  std::uint64_t scans_ = 0;
  double poll_ms_ = 2.0;
};

}  // namespace rascad::robust
