#include "serve/service.hpp"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/csv.hpp"
#include "core/sweep.hpp"
#include "exec/parallel.hpp"
#include "mg/system.hpp"
#include "obs/export/delta.hpp"
#include "obs/export/exposition.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "robust/watchdog.hpp"
#include "sim/streaming.hpp"
#include "sim/system_sim.hpp"
#include "spec/parser.hpp"

namespace rascad::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Stall budget of the per-request watchdog guard.
constexpr double kWatchdogBudgetMs = 1000.0;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Shortest round-trip decimal rendering (same contract as the JSONL
/// sink): a client parsing the value back gets the bit-identical double
/// the solver produced, which the bitwise serve-vs-CLI tests rely on.
std::string fmt_double(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

double parse_double_field(const std::string& s, const char* what) {
  double v = 0.0;
  const char* first = s.data();
  const char* last = first + s.size();
  const auto r = std::from_chars(first, last, v);
  if (r.ec != std::errc() || r.ptr != last) {
    throw std::invalid_argument(std::string("serve: bad ") + what + " '" + s +
                                "'");
  }
  return v;
}

std::uint64_t parse_u64_field(const std::string& s, const char* what) {
  std::uint64_t v = 0;
  const char* first = s.data();
  const char* last = first + s.size();
  const auto r = std::from_chars(first, last, v);
  if (r.ec != std::errc() || r.ptr != last) {
    throw std::invalid_argument(std::string("serve: bad ") + what + " '" + s +
                                "'");
  }
  return v;
}

/// Pops `count` newline-terminated header lines plus the blank separator
/// off `text`; returns the lines, leaves the remainder (the model source)
/// in `text`.
std::vector<std::string> take_header(std::string_view& text,
                                     std::size_t count) {
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t i = 0; i < count + 1; ++i) {
    const std::size_t nl = text.find('\n');
    if (nl == std::string_view::npos) {
      throw std::invalid_argument("serve: truncated request header");
    }
    std::string line(text.substr(0, nl));
    text.remove_prefix(nl + 1);
    if (i == count) {
      if (!line.empty()) {
        throw std::invalid_argument(
            "serve: request header not terminated by a blank line");
      }
      break;
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

/// Request text after the u32 deadline prefix of a solve/sweep/simulate
/// body. A body shorter than the prefix is malformed: reject it instead of
/// reading past its end.
std::string_view request_text(const Frame& req, const char* verb) {
  if (req.body.size() < 4) {
    throw std::invalid_argument(
        std::string("serve: ") + verb + " body is " +
        std::to_string(req.body.size()) +
        " bytes, short of the 4-byte deadline prefix");
  }
  return std::string_view(req.body).substr(4);
}

/// Sweepable block parameters. A fixed whitelist, not reflection: each
/// name maps to one double field of spec::BlockSpec.
core::BlockMutator mutator_for(const std::string& param) {
  if (param == "mtbf_h") {
    return [](spec::BlockSpec& b, double v) { b.mtbf_h = v; };
  }
  if (param == "transient_fit") {
    return [](spec::BlockSpec& b, double v) { b.transient_fit = v; };
  }
  if (param == "mttr_corrective_min") {
    return [](spec::BlockSpec& b, double v) { b.mttr_corrective_min = v; };
  }
  if (param == "service_response_h") {
    return [](spec::BlockSpec& b, double v) { b.service_response_h = v; };
  }
  if (param == "p_correct_diagnosis") {
    return [](spec::BlockSpec& b, double v) { b.p_correct_diagnosis = v; };
  }
  throw std::invalid_argument("serve: unknown sweep parameter '" + param +
                              "' (supported: mtbf_h, transient_fit, "
                              "mttr_corrective_min, service_response_h, "
                              "p_correct_diagnosis)");
}

/// CSV rows per kChunk frame on the sweep streaming path.
constexpr std::size_t kRowsPerChunk = 16;

obs::Counter& requests_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.requests");
  return c;
}
obs::Counter& rejected_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.rejected");
  return c;
}
obs::Counter& completed_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.completed");
  return c;
}
obs::Counter& failed_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.failed");
  return c;
}
obs::Histogram& request_histogram() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("serve.request_ms");
  return h;
}
obs::Gauge& admitted_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("serve.queue_depth");
  return g;
}
obs::Counter& scrapes_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.scrapes");
  return c;
}

}  // namespace

/// One accepted connection. Its reader thread parses request frames; each
/// reply frame is written by the thread that made it (a pool worker, the
/// reader, or a watch thread). The reader, every request it hands off and
/// every watch stream hold the session, and the socket closes when the
/// last of them lets go.
struct Service::Session {
  explicit Session(int socket) : fd(socket) {}
  ~Session() { ::close(fd); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const int fd;
  /// Set when the reader stops: the client hung up or the service stops.
  std::atomic<bool> closing{false};

  /// Delta-scrape cursors for the kMetrics verb, which runs only on this
  /// connection's reader thread — per-connection state, no lock needed.
  /// (Each kWatch stream owns its own pair on its scraper thread.)
  std::unique_ptr<obs::scrape::MetricsCursor> metrics_cursor;
  std::unique_ptr<obs::scrape::TraceCursor> trace_cursor;

  /// Writes one whole frame; the lock keeps frames made on different
  /// threads from interleaving their bytes. After the first failed send
  /// (peer gone, or SO_SNDTIMEO lapsed) nothing more is written and every
  /// push returns false.
  bool push(const Frame& frame) {
    const std::string bytes = encode_frame(frame);
    std::lock_guard<std::mutex> lock(write_mu_);
    if (broken_) return false;
    try {
      write_all(fd, bytes.data(), bytes.size());
      return true;
    } catch (const std::exception&) {
      // The stream may now end mid-frame: end it for both sides, so the
      // client reads EOF and the reader takes no further requests.
      broken_ = true;
      ::shutdown(fd, SHUT_RDWR);
      return false;
    }
  }

 private:
  std::mutex write_mu_;
  bool broken_ = false;  // guarded by write_mu_
};

Service::Service(ServiceConfig config)
    : cfg_(std::move(config)),
      cache_(cfg_.cache_capacity) {
  if (cfg_.queue_capacity == 0) cfg_.queue_capacity = 1;
  cache_.bind_metrics("serve.cache.block", "serve.cache.curve");
}

Service::~Service() { stop(); }

void Service::start() {
  if (running_.load(std::memory_order_acquire)) return;
  if (cfg_.socket_path.empty()) {
    throw std::runtime_error("serve: empty socket path");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " +
                             cfg_.socket_path);
  }
  std::memcpy(addr.sun_path, cfg_.socket_path.c_str(),
              cfg_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: socket(): ") +
                             std::strerror(errno));
  }
  ::unlink(cfg_.socket_path.c_str());  // stale socket from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("serve: bind(") + cfg_.socket_path +
                             "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("serve: listen(): ") +
                             std::strerror(err));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
  }
  scrapers_stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Service::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;  // no further admissions
  }
  // Wake watch scrapers out of their interval sleeps so they wind down
  // (emit their terminal frames) concurrently with the request drain. The
  // flag flips under scrapers_mu_ — paired with the spawn-side check in
  // handle_frame, so watcher creation and shutdown cannot interleave.
  {
    std::lock_guard<std::mutex> lock(scrapers_mu_);
    scrapers_stop_.store(true, std::memory_order_release);
  }
  scrapers_cv_.notify_all();
  // Unblock accept(); the acceptor exits on the resulting error.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Drain: every admitted request runs to completion and writes its
  // response frames before any connection is torn down.
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [this] { return inflight_ == 0; });
  }
  // Helper tasks submitted by those requests' parallel loops reference
  // solver state; make sure none is still running either.
  exec::global_pool().drain();
  // Scrapers next: their terminal kResult frames must be written before
  // the sockets are shut down below. They are detached threads (each owns
  // a session shared_ptr), so the handshake is a count, not a join.
  {
    std::unique_lock<std::mutex> lock(scrapers_mu_);
    scrapers_cv_.wait(lock, [this] { return active_watchers_ == 0; });
  }

  // Readers last. Shutting a socket down wakes its reader out of
  // read_frame (EOF) or out of a send to a client that stopped reading;
  // each reader deregisters on its way out.
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (Session* s : sessions_) ::shutdown(s->fd, SHUT_RDWR);
    drained_cv_.wait(lock, [this] { return sessions_.empty(); });
  }
  ::unlink(cfg_.socket_path.c_str());
}

bool Service::wait_shutdown_requested(double timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto requested = [this] {
    return shutdown_requested_.load(std::memory_order_acquire);
  };
  if (timeout_ms <= 0.0) {
    shutdown_cv_.wait(lock, requested);
    return true;
  }
  return shutdown_cv_.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms), requested);
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.scrapes = scrapes_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.inflight = inflight_;
  }
  {
    std::lock_guard<std::mutex> lock(scrapers_mu_);
    s.watchers = active_watchers_;
  }
  s.queue_capacity = cfg_.queue_capacity;
  s.cache_blocks = cache_.block_counters();
  s.cache_curves = cache_.curve_counters();
  return s;
}

void Service::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down: service is stopping
    }
    // A stalled client must not wedge the thread writing its reply
    // forever; a send that cannot make progress for 30 s drops the
    // connection instead.
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    auto session = std::make_shared<Session>(fd);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      sessions_.push_back(session.get());
    }
    std::thread([this, session] { reader_loop(session); }).detach();
  }
}

void Service::reader_loop(const std::shared_ptr<Session>& session) {
  try {
    Frame frame;
    while (read_frame(session->fd, frame)) {
      handle_frame(session, std::move(frame));
      frame = Frame{};
    }
  } catch (const std::exception&) {
    // Protocol violation or forced shutdown of the fd: treat as EOF.
  }
  session->closing.store(true, std::memory_order_release);
  // notify_all under the lock on purpose: stop() may destroy this Service
  // the moment its sessions_.empty() wait returns, which cannot happen
  // before this thread releases the mutex.
  std::lock_guard<std::mutex> lock(mu_);
  std::erase(sessions_, session.get());
  if (sessions_.empty()) drained_cv_.notify_all();
}

void Service::handle_frame(const std::shared_ptr<Session>& session,
                           Frame frame) {
  switch (frame.type) {
    case FrameType::kStats:
      session->push(do_stats(frame));
      completed_.fetch_add(1, std::memory_order_relaxed);
      return;
    case FrameType::kShutdown:
      // Ack BEFORE signaling: once shutdown_requested_ is observable the
      // host may call stop(), which shuts this socket down. push() returns
      // only after the whole ack is written, so the ack is never cut off.
      session->push(make_result(frame.request_id, robust::PointStatus::kOk,
                                "shutting down\n"));
      completed_.fetch_add(1, std::memory_order_relaxed);
      shutdown_requested_.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(mu_);
      }
      shutdown_cv_.notify_all();
      return;
    case FrameType::kMetrics:
      // Scrapes bypass admission entirely: answered right here on the
      // reader thread, they can never occupy a pool slot or be rejected
      // while the solver queue is saturated — exactly when a monitoring
      // poller most needs an answer.
      session->push(do_metrics(session, frame));
      completed_.fetch_add(1, std::memory_order_relaxed);
      return;
    case FrameType::kWatch: {
      // A watch stream gets a dedicated scraper thread, detached: it owns
      // a session reference, so the socket stays open for its pushes;
      // stop() handshakes on active_watchers_ (see stop()). The stop-flag
      // check and the increment share the mutex so no watcher can start
      // after stop()'s active_watchers_ == 0 wait has passed.
      {
        std::lock_guard<std::mutex> lock(scrapers_mu_);
        if (scrapers_stop_.load(std::memory_order_acquire)) {
          session->push(make_result(frame.request_id,
                                    robust::PointStatus::kCancelled,
                                    "ticks=0\nstatus=cancelled\n"));
          completed_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        ++active_watchers_;
      }
      std::thread([this, session, req = std::move(frame)]() mutable {
        watch_loop(session, std::move(req));
      }).detach();
      return;
    }
    case FrameType::kPing:
    case FrameType::kSolve:
    case FrameType::kSweep:
    case FrameType::kSimulate:
      break;
    default:
      session->push(make_error(frame.request_id, robust::PointStatus::kFailed,
                               std::string("unknown request type ") +
                                   std::to_string(static_cast<unsigned>(
                                       frame.type))));
      failed_.fetch_add(1, std::memory_order_relaxed);
      return;
  }

  // Bounded admission: the daemon's queue is the in-flight count, and a
  // full queue answers immediately with a retry hint instead of building
  // unbounded backlog (the client owns its retry policy).
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_ && inflight_ < cfg_.queue_capacity) {
      ++inflight_;
      admitted = true;
      if (obs::enabled()) {
        admitted_gauge().set(static_cast<std::int64_t>(inflight_));
      }
    }
  }
  if (!admitted) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) rejected_counter().inc();
    session->push(make_retry_after(frame.request_id, cfg_.retry_after_ms,
                                   "admission queue full"));
    return;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) requests_counter().inc();
  exec::global_pool().submit(
      [this, session, req = std::move(frame)]() mutable {
        run_request(session, std::move(req));
      });
}

void Service::run_request(const std::shared_ptr<Session>& session,
                          Frame frame) {
  const auto start = Clock::now();
  obs::Span span("serve.request");
  if (span.active()) {
    span.set_detail("req=" + std::to_string(frame.request_id) +
                    " verb=" + to_string(frame.type));
  }

  // Request-scoped token: observes the service lifetime token and, when
  // the client supplied one, its deadline. Every solver checkpoint under
  // this request polls it.
  double deadline_ms =
      frame.body.size() >= 4 ? static_cast<double>(get_u32(frame.body, 0))
                             : 0.0;
  if (deadline_ms <= 0.0) deadline_ms = cfg_.default_deadline_ms;
  const robust::CancelToken token =
      deadline_ms > 0.0 ? robust::CancelToken::child_of(lifetime_, deadline_ms)
                        : robust::CancelToken::child_of(lifetime_);
  const auto watchdog = robust::StallWatchdog::global().watch(
      token, kWatchdogBudgetMs,
      std::string("serve.") + to_string(frame.type) + " req=" +
          std::to_string(frame.request_id));

  Frame terminal;
  bool failed = false;
  try {
    switch (frame.type) {
      case FrameType::kPing: terminal = do_ping(frame, token); break;
      case FrameType::kSolve: terminal = do_solve(frame, token); break;
      case FrameType::kSweep:
        terminal = do_sweep(session, frame, token);
        break;
      case FrameType::kSimulate:
        terminal = do_simulate(frame, token);
        break;
      default:
        terminal = make_error(frame.request_id, robust::PointStatus::kFailed,
                              "unroutable request");
        break;
    }
  } catch (...) {
    const auto [status, detail] =
        robust::point_status_from_exception(std::current_exception());
    terminal = make_error(frame.request_id, status, detail);
    failed = true;
  }
  session->push(terminal);

  if (obs::enabled()) {
    request_histogram().observe_ms(ms_since(start));
    (failed ? failed_counter() : completed_counter()).inc();
  }
  finish_request(failed);
}

void Service::finish_request(bool failed) {
  (failed ? failed_ : completed_).fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    if (obs::enabled()) {
      admitted_gauge().set(static_cast<std::int64_t>(inflight_));
    }
    if (inflight_ == 0) drained_cv_.notify_all();
  }
  if (!cfg_.obs_append_path.empty() && obs::enabled()) {
    // Per-request incremental dump. Correct only because the dump path
    // drains atomically now: spans recorded by requests running
    // concurrently with this append stay buffered for the next one.
    std::lock_guard<std::mutex> lock(obs_append_mu_);
    obs::append_jsonl(cfg_.obs_append_path);
  }
}

Frame Service::do_ping(const Frame& req, const robust::CancelToken& token) {
  const std::uint32_t sleep_ms =
      req.body.size() >= 8 ? get_u32(req.body, 4) : 0;
  if (sleep_ms > 0) {
    const auto until = Clock::now() + std::chrono::milliseconds(sleep_ms);
    while (Clock::now() < until) {
      robust::throw_if_stopped(token, "serve.ping");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  robust::throw_if_stopped(token, "serve.ping");
  Frame f;
  f.type = FrameType::kPong;
  f.request_id = req.request_id;
  return f;
}

Frame Service::do_solve(const Frame& req, const robust::CancelToken& token) {
  spec::ModelSpec model = spec::parse_model(request_text(req, "solve"));

  mg::SystemModel::Options opts;
  opts.cache = &cache_;
  opts.parallel.cancel = token;
  const mg::SystemModel system = mg::SystemModel::build(std::move(model), opts);

  const double mission = system.spec().globals.mission_time_h;
  std::string out;
  out += "availability=" + fmt_double(system.availability()) + "\n";
  out += "yearly_downtime_min=" + fmt_double(system.yearly_downtime_min()) +
         "\n";
  out += "eq_failure_rate=" + fmt_double(system.eq_failure_rate()) + "\n";
  out += "mtbf_h=" + fmt_double(system.mtbf_h()) + "\n";
  out += "mission_time_h=" + fmt_double(mission) + "\n";
  out += "interval_availability=" +
         fmt_double(system.interval_availability(mission)) + "\n";
  out += "reliability=" + fmt_double(system.reliability(mission)) + "\n";
  out += "blocks=" + std::to_string(system.blocks().size()) + "\n";
  out += "states=" + std::to_string(system.total_states()) + "\n";
  return make_result(req.request_id, robust::PointStatus::kOk,
                     std::move(out));
}

Frame Service::do_sweep(const std::shared_ptr<Session>& session,
                        const Frame& req, const robust::CancelToken& token) {
  std::string_view text = request_text(req, "sweep");
  const std::vector<std::string> head = take_header(text, 6);
  const std::string& diagram = head[0];
  const std::string& block = head[1];
  const std::string& param = head[2];
  const double lo = parse_double_field(head[3], "sweep lo");
  const double hi = parse_double_field(head[4], "sweep hi");
  const std::size_t n =
      static_cast<std::size_t>(parse_u64_field(head[5], "sweep points"));
  if (n < 2 || n > kMaxSweepPoints) {
    throw std::invalid_argument("serve: sweep needs 2 to " +
                                std::to_string(kMaxSweepPoints) +
                                " points, got " + std::to_string(n));
  }

  const core::BlockMutator mutate = mutator_for(param);
  spec::ModelSpec model = spec::parse_model(text);

  core::SweepOptions opts;
  opts.model.cache = &cache_;
  opts.incremental = true;
  // The request token in the loop options is what buys degradation: a
  // deadline mid-sweep yields the completed prefix, and the un-run points
  // come back with their PointStatus instead of an exception.
  opts.parallel.cancel = token;
  const std::vector<core::SweepPoint> points = core::sweep_block_parameter(
      model, diagram, block, mutate, core::linspace(lo, hi, n), opts);

  // Stream the series in row chunks, each written as it is cut: the
  // socket buffer lets the client fall behind by what it holds before
  // a send blocks this worker.
  const std::string csv = core::sweep_csv(points);
  std::size_t line_start = 0;
  std::size_t rows = 0;
  std::size_t chunk_start = 0;
  while (line_start < csv.size()) {
    const std::size_t nl = csv.find('\n', line_start);
    const std::size_t line_end = nl == std::string::npos ? csv.size() : nl + 1;
    ++rows;
    if (rows >= kRowsPerChunk || line_end >= csv.size()) {
      session->push(make_chunk(
          req.request_id, csv.substr(chunk_start, line_end - chunk_start)));
      chunk_start = line_end;
      rows = 0;
    }
    line_start = line_end;
  }

  robust::PointStatus status = robust::PointStatus::kOk;
  std::size_t completed = 0;
  for (const auto& p : points) {
    if (p.ok()) {
      ++completed;
    } else if (status == robust::PointStatus::kOk) {
      status = p.status;
    }
  }
  std::string out;
  out += "points=" + std::to_string(points.size()) + "\n";
  out += "completed=" + std::to_string(completed) + "\n";
  out += std::string("status=") + robust::to_string(status) + "\n";
  return make_result(req.request_id, status, std::move(out));
}

Frame Service::do_simulate(const Frame& req,
                           const robust::CancelToken& token) {
  std::string_view text = request_text(req, "simulate");
  const std::vector<std::string> head = take_header(text, 3);
  const double horizon = parse_double_field(head[0], "simulate horizon_h");
  const std::size_t reps =
      static_cast<std::size_t>(parse_u64_field(head[1], "simulate reps"));
  const std::uint64_t seed = parse_u64_field(head[2], "simulate seed");
  const spec::ModelSpec model = spec::parse_model(text);

  // The streaming engine folds replications into Welford + P² accumulators
  // batch by batch, so a million-replication request holds O(batch) memory
  // and a deadline cut still returns the statistics of the folded prefix.
  sim::StreamingOptions sopts;
  sopts.parallel.cancel = token;
  const sim::StreamingReplicationResult rep =
      sim::replicate_system_streaming(model, horizon, reps, seed, sopts);

  const auto ci = rep.availability.confidence_interval();
  std::string out;
  out += "requested=" + std::to_string(rep.requested) + "\n";
  out += "completed=" + std::to_string(rep.completed) + "\n";
  out += std::string("status=") + robust::to_string(rep.status) + "\n";
  out += "availability_mean=" + fmt_double(rep.availability.mean()) + "\n";
  out += "availability_ci_lo=" + fmt_double(ci.lo) + "\n";
  out += "availability_ci_hi=" + fmt_double(ci.hi) + "\n";
  out += "availability_p50=" + fmt_double(rep.availability_p50.value()) + "\n";
  out += "availability_p99=" + fmt_double(rep.availability_p99.value()) + "\n";
  out +=
      "availability_p999=" + fmt_double(rep.availability_p999.value()) + "\n";
  out += "downtime_min_mean=" + fmt_double(rep.downtime_minutes.mean()) +
         "\n";
  out += "outages_mean=" + fmt_double(rep.outages.mean()) + "\n";
  out += "events=" + std::to_string(rep.events) + "\n";
  // Partial Monte-Carlo statistics are still statistics: report them with
  // the degradation status instead of discarding completed replications.
  return make_result(req.request_id, rep.status, std::move(out));
}

Frame Service::do_stats(const Frame& req) {
  const ServiceStats s = stats();
  std::string out;
  out += "accepted=" + std::to_string(s.accepted) + "\n";
  out += "rejected=" + std::to_string(s.rejected) + "\n";
  out += "completed=" + std::to_string(s.completed) + "\n";
  out += "failed=" + std::to_string(s.failed) + "\n";
  out += "inflight=" + std::to_string(s.inflight) + "\n";
  out += "queue_capacity=" + std::to_string(s.queue_capacity) + "\n";
  const auto table = [&out](const char* prefix,
                            const cache::CacheCounters& c) {
    out += std::string(prefix) + ".hits=" + std::to_string(c.hits) + "\n";
    out += std::string(prefix) + ".misses=" + std::to_string(c.misses) + "\n";
    out += std::string(prefix) +
           ".insertions=" + std::to_string(c.insertions) + "\n";
    out += std::string(prefix) + ".evictions=" + std::to_string(c.evictions) +
           "\n";
    out += std::string(prefix) + ".entries=" + std::to_string(c.entries) +
           "\n";
  };
  table("cache.block", s.cache_blocks);
  table("cache.curve", s.cache_curves);
  out += "scrapes=" + std::to_string(s.scrapes) + "\n";
  out += "watchers=" + std::to_string(s.watchers) + "\n";
  return make_result(req.request_id, robust::PointStatus::kOk,
                     std::move(out));
}

Frame Service::do_metrics(const std::shared_ptr<Session>& session,
                          const Frame& req) {
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) scrapes_counter().inc();
  const std::uint32_t flags = req.body.size() >= 4 ? get_u32(req.body, 0) : 0;
  if ((flags & 1u) != 0) {
    // Delta mode: the cursors live in the session (this verb only ever
    // runs on the session's reader thread), so each connection gets its
    // own "changed since my last scrape" view.
    if (!session->metrics_cursor) {
      session->metrics_cursor =
          std::make_unique<obs::scrape::MetricsCursor>();
      session->trace_cursor = std::make_unique<obs::scrape::TraceCursor>();
    }
    std::ostringstream os;
    obs::scrape::write_delta_jsonl(os, session->metrics_cursor->collect(),
                                   session->trace_cursor->collect());
    return make_result(req.request_id, robust::PointStatus::kOk, os.str());
  }
  // Full mode: the Prometheus-style exposition page. The service's own
  // lifecycle tallies ride along as extra samples — unlike the registry
  // metrics they are maintained even with observability disabled, so a
  // plain scrape of an un-instrumented daemon still shows traffic.
  const ServiceStats s = stats();
  std::vector<obs::scrape::ExtraSample> extras = {
      {"serve.info",
       {{"socket", cfg_.socket_path}},
       1.0,
       "gauge"},
      {"serve.stats.accepted", {}, static_cast<double>(s.accepted),
       "counter"},
      {"serve.stats.rejected", {}, static_cast<double>(s.rejected),
       "counter"},
      {"serve.stats.completed", {}, static_cast<double>(s.completed),
       "counter"},
      {"serve.stats.failed", {}, static_cast<double>(s.failed), "counter"},
      {"serve.stats.inflight", {}, static_cast<double>(s.inflight), "gauge"},
      {"serve.stats.watchers", {}, static_cast<double>(s.watchers), "gauge"},
  };
  return make_result(
      req.request_id, robust::PointStatus::kOk,
      obs::scrape::exposition_text(obs::Registry::global().snapshot(),
                                   extras));
}

void Service::watch_loop(std::shared_ptr<Session> session, Frame req) {
  const std::uint32_t deadline_ms =
      req.body.size() >= 4 ? get_u32(req.body, 0) : 0;
  std::uint32_t interval_ms = req.body.size() >= 8 ? get_u32(req.body, 4) : 0;
  const std::uint32_t max_ticks =
      req.body.size() >= 12 ? get_u32(req.body, 8) : 0;
  if (interval_ms == 0) interval_ms = 1000;

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  obs::scrape::MetricsCursor metrics;
  obs::scrape::TraceCursor trace;
  std::uint64_t ticks = 0;
  robust::PointStatus status = robust::PointStatus::kOk;
  for (;;) {
    if (scrapers_stop_.load(std::memory_order_acquire)) {
      status = robust::PointStatus::kCancelled;
      break;
    }
    if (session->closing.load(std::memory_order_acquire)) {
      // Client hung up; the terminal frame below is best-effort.
      status = robust::PointStatus::kCancelled;
      break;
    }
    if (deadline_ms > 0 && Clock::now() >= deadline) {
      // Same degraded-partial contract as a deadline mid-sweep: the
      // chunks already streamed are the result, the status says why the
      // stream ended.
      status = robust::PointStatus::kDeadlineExceeded;
      break;
    }
    // First chunk immediately (the consumer wants a baseline at t=0),
    // then one per interval.
    std::ostringstream os;
    obs::scrape::write_delta_jsonl(os, metrics.collect(), trace.collect());
    if (!session->push(make_chunk(req.request_id, os.str()))) {
      status = robust::PointStatus::kCancelled;  // the send failed
      break;
    }
    ++ticks;
    scrapes_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) scrapes_counter().inc();
    if (max_ticks > 0 && ticks >= max_ticks) break;

    std::unique_lock<std::mutex> lock(scrapers_mu_);
    scrapers_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                          [this, &session] {
                            return scrapers_stop_.load(
                                       std::memory_order_acquire) ||
                                   session->closing.load(
                                       std::memory_order_acquire);
                          });
  }
  session->push(make_result(req.request_id, status,
                            "ticks=" + std::to_string(ticks) + "\nstatus=" +
                                robust::to_string(status) + "\n"));
  completed_.fetch_add(1, std::memory_order_relaxed);
  {
    // notify_all under the lock on purpose: stop() may destroy this
    // Service the moment its active_watchers_ == 0 wait returns, and that
    // return cannot happen before this thread releases the mutex — after
    // which it never touches *this again.
    std::lock_guard<std::mutex> lock(scrapers_mu_);
    --active_watchers_;
    scrapers_cv_.notify_all();
  }
}

}  // namespace rascad::serve
