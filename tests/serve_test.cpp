// Solve-service daemon: frame protocol round trips, in-process Service +
// Client end-to-end (solve parity with a direct build, shared warm cache
// across connections, admission backpressure with retry-after,
// per-request deadlines with degraded partial results, chunked sweep
// streaming, whole frames from concurrent writers on one connection,
// clients that hang up mid-reply, graceful shutdown draining in-flight
// work).
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cache/solve_cache.hpp"
#include "core/csv.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "core/library.hpp"
#include "core/sweep.hpp"
#include "mg/system.hpp"
#include "robust/cancel.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "spec/parser.hpp"
#include "spec/writer.hpp"

namespace {

using rascad::robust::PointStatus;
using rascad::serve::Client;
using rascad::serve::Frame;
using rascad::serve::FrameType;
using rascad::serve::Reply;
using rascad::serve::Service;
using rascad::serve::ServiceConfig;
using rascad::serve::ServiceStats;

/// A model with enough structure to exercise the cache (the library's
/// datacenter system), rendered back to `.rsc` text for the wire.
std::string datacenter_text() {
  return rascad::spec::to_rsc_string(rascad::core::library::datacenter_system());
}

/// Unique-per-test socket path under /tmp (sun_path is length-limited, so
/// TempDir — often a deep path — is not safe here).
std::string socket_path(const char* tag) {
  return "/tmp/rascad_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

struct ServerFixture {
  explicit ServerFixture(ServiceConfig cfg) : service(std::move(cfg)) {
    service.start();
  }
  ~ServerFixture() {
    service.stop();
    std::remove(service.config().socket_path.c_str());
  }
  Service service;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

ServiceConfig base_config(const char* tag) {
  ServiceConfig cfg;
  cfg.socket_path = socket_path(tag);
  return cfg;
}

// ------------------------------------------------------------ protocol ----

TEST(ServeProtocol, FrameEncodeDecodeRoundTripsOverAPipe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Frame out;
  out.type = FrameType::kSolve;
  out.request_id = 0xdeadbeefcafe;
  out.body = std::string("\x01\x00\x00\x00", 4) + "block \"X\" {}\n";
  rascad::serve::write_frame(fds[0], out);
  Frame in;
  ASSERT_TRUE(rascad::serve::read_frame(fds[1], in));
  EXPECT_EQ(in.type, out.type);
  EXPECT_EQ(in.request_id, out.request_id);
  EXPECT_EQ(in.body, out.body);

  ::close(fds[0]);  // clean EOF at a frame boundary
  EXPECT_FALSE(rascad::serve::read_frame(fds[1], in));
  ::close(fds[1]);
}

TEST(ServeProtocol, TruncatedAndOversizedFramesThrow) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Announce a large frame, deliver half a header, close.
  const char partial[] = {0x40, 0x00, 0x00, 0x00, 0x02};
  ASSERT_EQ(::write(fds[0], partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(fds[0]);
  Frame in;
  EXPECT_THROW(rascad::serve::read_frame(fds[1], in), std::runtime_error);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Length below the type+request_id minimum is a protocol violation.
  const char runt[] = {0x04, 0x00, 0x00, 0x00, 1, 2, 3, 4};
  ASSERT_EQ(::write(fds[0], runt, sizeof(runt)),
            static_cast<ssize_t>(sizeof(runt)));
  EXPECT_THROW(rascad::serve::read_frame(fds[1], in), std::runtime_error);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeProtocol, ScalarCodecsAreLittleEndianAndBoundsChecked) {
  std::string body;
  rascad::serve::put_u32(body, 0x01020304u);
  rascad::serve::put_u64(body, 0x1122334455667788ull);
  EXPECT_EQ(static_cast<unsigned char>(body[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(body[3]), 0x01);
  EXPECT_EQ(rascad::serve::get_u32(body, 0), 0x01020304u);
  EXPECT_EQ(rascad::serve::get_u64(body, 4), 0x1122334455667788ull);
  EXPECT_THROW(rascad::serve::get_u32(body, 9), std::invalid_argument);
}

// ---------------------------------------------------------- end-to-end ----

TEST(ServeEndToEnd, PingPongAndStats) {
  ServerFixture server(base_config("ping"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);
  const Reply pong = client.ping();
  EXPECT_TRUE(pong.ok());
  EXPECT_EQ(pong.type, FrameType::kPong);

  const Reply stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(rascad::serve::reply_value(stats.text, "accepted"), 1.0);
  EXPECT_EQ(rascad::serve::reply_value(stats.text, "rejected"), 0.0);
  EXPECT_GT(rascad::serve::reply_value(stats.text, "queue_capacity"), 0.0);
}

TEST(ServeEndToEnd, SolveMatchesDirectBuildBitwise) {
  const std::string text = datacenter_text();

  // Oracle: the one-shot in-process path.
  auto model = rascad::spec::parse_model(text);
  const auto direct = rascad::mg::SystemModel::build(std::move(model));

  ServerFixture server(base_config("solve"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);
  const Reply reply = client.solve(text);
  ASSERT_TRUE(reply.ok()) << reply.text;
  EXPECT_EQ(rascad::serve::reply_value(reply.text, "availability"),
            direct.availability());
  EXPECT_EQ(rascad::serve::reply_value(reply.text, "yearly_downtime_min"),
            direct.yearly_downtime_min());
  EXPECT_EQ(rascad::serve::reply_value(reply.text, "mtbf_h"),
            direct.mtbf_h());
  EXPECT_EQ(rascad::serve::reply_value(reply.text, "blocks"),
            static_cast<double>(direct.blocks().size()));
}

TEST(ServeEndToEnd, CacheIsSharedAcrossConnections) {
  const std::string text = datacenter_text();
  ServerFixture server(base_config("cache"));
  const std::string path = server.service.config().socket_path;

  Client first;
  first.connect_retry(path, 2000.0);
  ASSERT_TRUE(first.solve(text).ok());
  const auto cold = server.service.stats();
  EXPECT_GT(cold.cache_blocks.insertions, 0u);

  // A different connection issues the same solve: every block solve must
  // come from the shared warm cache, inserting nothing new.
  Client second;
  second.connect_retry(path, 2000.0);
  ASSERT_TRUE(second.solve(text).ok());
  const auto warm = server.service.stats();
  EXPECT_EQ(warm.cache_blocks.insertions, cold.cache_blocks.insertions);
  EXPECT_GT(warm.cache_blocks.hits, cold.cache_blocks.hits);
}

TEST(ServeEndToEnd, AdmissionRejectsWithRetryAfterWhenFull) {
  ServiceConfig cfg = base_config("backpressure");
  cfg.queue_capacity = 1;
  cfg.retry_after_ms = 7.0;
  ServerFixture server(cfg);
  const std::string path = server.service.config().socket_path;

  // Occupy the single slot with a parked ping...
  Client occupant;
  occupant.connect_retry(path, 2000.0);
  // The prober's first pings can race it for the slot, so a rejected
  // occupant retries until it is admitted.
  std::thread parked([&occupant] {
    Reply r = occupant.ping(0, 400);
    for (int i = 0; i < 200 && r.rejected(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      r = occupant.ping(0, 400);
    }
    EXPECT_TRUE(r.ok());
  });

  // ...then probe until the slot is observably taken and the admission
  // gate answers with the configured retry hint.
  Client prober;
  prober.connect_retry(path, 2000.0);
  Reply rejected;
  bool saw_rejection = false;
  for (int i = 0; i < 200; ++i) {
    rejected = prober.ping();
    if (rejected.rejected()) {
      saw_rejection = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(saw_rejection) << "queue_capacity=1 never produced a rejection";
  EXPECT_EQ(rejected.retry_after_ms, 7.0);
  EXPECT_NE(rejected.text.find("queue full"), std::string::npos);

  parked.join();
  EXPECT_GE(server.service.stats().rejected, 1u);

  // After the occupant finishes, the same client is admitted again. The
  // pong is streamed before the admission slot frees, so poll briefly.
  Reply after;
  for (int i = 0; i < 200; ++i) {
    after = prober.ping();
    if (after.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(after.ok()) << "slot never freed after occupant finished";
}

TEST(ServeEndToEnd, RetryingClientEventuallyAdmitted) {
  ServiceConfig cfg = base_config("retry");
  cfg.queue_capacity = 1;
  cfg.retry_after_ms = 5.0;
  ServerFixture server(cfg);
  const std::string path = server.service.config().socket_path;
  const std::string text = datacenter_text();

  Client occupant;
  occupant.connect_retry(path, 2000.0);
  std::thread parked([&occupant] { EXPECT_TRUE(occupant.ping(0, 150).ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  Client retrier;
  retrier.connect_retry(path, 2000.0);
  std::size_t attempts = 0;
  const Reply reply = retrier.solve_retrying(text, 5000.0, 0, &attempts);
  EXPECT_TRUE(reply.ok()) << reply.text;
  EXPECT_GE(attempts, 1u);
  parked.join();
}

TEST(ServeEndToEnd, ClientDeadlineCutsRequestShort) {
  ServerFixture server(base_config("deadline"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);
  // Park the worker for 2 s under a 30 ms deadline: the request-scoped
  // token fires and the error carries the deadline taxonomy.
  const auto start = std::chrono::steady_clock::now();
  const Reply reply = client.ping(/*deadline_ms=*/30, /*sleep_ms=*/2000);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.status, PointStatus::kDeadlineExceeded);
  EXPECT_LT(elapsed_ms, 1500.0) << "deadline did not cut the park short";
}

TEST(ServeEndToEnd, SolveDeadlineReachesTheBlockCurves) {
  // One Type 4 block of 1440 units (10,077 states): its availability
  // curve takes ~70 Arnoldi steps and well over 100 ms, so a 50 ms
  // deadline has to stop it mid-curve.
  rascad::spec::BlockSpec b;
  b.name = "deep";
  b.quantity = 1440;
  b.min_quantity = 1;
  b.mtbf_h = 100'000.0;
  b.transient_fit = 2'000.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.p_correct_diagnosis = 0.95;
  b.p_latent_fault = 0.05;
  b.mttdlf_h = 48.0;
  b.recovery = rascad::spec::Transparency::kNontransparent;
  b.ar_time_min = 6.0;
  b.p_spf = 0.01;
  b.t_spf_min = 30.0;
  b.repair = rascad::spec::Transparency::kNontransparent;
  b.reintegration_min = 8.0;
  rascad::spec::ModelSpec model;
  model.title = "deep";
  model.diagrams.push_back({"deep", {b}});
  const std::string text = rascad::spec::to_rsc_string(model);

  ServerFixture server(base_config("curve_deadline"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);
  const auto start = std::chrono::steady_clock::now();
  const Reply reply = client.solve(text, /*deadline_ms=*/50);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(reply.type, FrameType::kError) << reply.text;
  EXPECT_EQ(reply.status, PointStatus::kDeadlineExceeded) << reply.text;
  EXPECT_LT(elapsed_ms, 400.0) << "the curve did not poll the deadline";
}

TEST(ServeEndToEnd, SweepStreamsChunksAndParsesBack) {
  const std::string text = datacenter_text();
  ServerFixture server(base_config("sweep"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);

  constexpr std::size_t kPoints = 40;  // > one 16-row chunk
  const Reply reply = client.sweep(text, "Server Box", "Centerplane",
                                   "service_response_h", 0.5, 24.0, kPoints);
  ASSERT_TRUE(reply.ok()) << reply.text;
  EXPECT_EQ(rascad::serve::reply_value(reply.text, "points"),
            static_cast<double>(kPoints));
  EXPECT_EQ(rascad::serve::reply_value(reply.text, "completed"),
            static_cast<double>(kPoints));

  // The streamed chunks concatenate to EXACTLY the CSV text the core
  // layer produces for the same sweep — byte-identical, by the solver's
  // determinism contract plus the serializer's canonical formatting.
  const auto points = rascad::core::read_sweep_csv(reply.stream);
  ASSERT_EQ(points.size(), kPoints);
  for (const auto& p : points) EXPECT_TRUE(p.ok());
  auto model = rascad::spec::parse_model(text);
  rascad::core::SweepOptions opts;
  // The service solves against its own per-instance cache (cold for this
  // fixture); point the direct sweep at a cold cache too, instead of the
  // process-global one, so the provenance columns (fresh vs cache) match
  // no matter what earlier tests or repeats left in the global table.
  rascad::cache::SolveCache direct_cache;
  opts.model.cache = &direct_cache;
  const auto direct = rascad::core::sweep_block_parameter(
      model, "Server Box", "Centerplane",
      [](rascad::spec::BlockSpec& b, double v) { b.service_response_h = v; },
      rascad::core::linspace(0.5, 24.0, kPoints), opts);
  EXPECT_EQ(reply.stream, rascad::core::sweep_csv(direct));
}

TEST(ServeEndToEnd, SweepUnderDeadlineReturnsDegradedPrefix) {
  const std::string text = datacenter_text();
  ServiceConfig cfg = base_config("degrade");
  ServerFixture server(cfg);
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);

  // A big sweep under a tiny deadline: the reply must be a kResult (not
  // an error) whose status explains the missing tail, with every row
  // accounted for — completed measurements plus status-carrying stubs.
  const Reply reply = client.sweep(text, "Server Box", "Centerplane",
                                   "service_response_h", 0.5, 24.0, 512,
                                   /*deadline_ms=*/1);
  ASSERT_EQ(reply.type, FrameType::kResult) << reply.text;
  ASSERT_TRUE(reply.degraded()) << "1 ms deadline finished a 512-point sweep?";
  EXPECT_EQ(reply.status, PointStatus::kDeadlineExceeded);
  const auto points = rascad::core::read_sweep_csv(reply.stream);
  ASSERT_EQ(points.size(), 512u);
  const double completed = rascad::serve::reply_value(reply.text, "completed");
  EXPECT_LT(completed, 512.0);
  std::size_t ok_rows = 0;
  for (const auto& p : points) {
    if (p.ok()) {
      ++ok_rows;
      EXPECT_FALSE(std::isnan(p.availability));
    } else {
      EXPECT_EQ(p.status, PointStatus::kDeadlineExceeded);
      EXPECT_TRUE(std::isnan(p.availability));
    }
  }
  EXPECT_EQ(static_cast<double>(ok_rows), completed);
}

TEST(ServeEndToEnd, OversizedSweepIsRefusedBeforeItRuns) {
  // A one-block model whose chain has two states: cheap per point, so only
  // the count can make the request expensive.
  const std::string text =
      "diagram \"Sys\" {\n"
      "  block \"Unit\" { mtbf = 1000 h  mttr_corrective = 60 min }\n"
      "}\n";
  ServerFixture server(base_config("sweepcap"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);
  const Reply solved = client.solve(text);
  ASSERT_TRUE(solved.ok()) << solved.text;
  ASSERT_EQ(rascad::serve::reply_value(solved.text, "states"), 2.0);

  const auto start = std::chrono::steady_clock::now();
  const Reply reply =
      client.sweep(text, "Sys", "Unit", "mtbf_h", 500.0, 2000.0,
                   rascad::serve::kMaxSweepPoints + 1);
  EXPECT_LT(ms_since(start), 2000.0) << "the sweep ran instead of failing";
  EXPECT_EQ(reply.type, FrameType::kError) << reply.text;
  EXPECT_EQ(reply.status, PointStatus::kFailed);
  EXPECT_NE(reply.text.find(std::to_string(rascad::serve::kMaxSweepPoints)),
            std::string::npos)
      << reply.text;
  EXPECT_TRUE(reply.stream.empty());
  // The connection stays usable.
  EXPECT_TRUE(client.ping().ok());
}

TEST(ServeEndToEnd, SimulatePartialUnderDeadlineKeepsCompletedStats) {
  const std::string text = datacenter_text();
  ServerFixture server(base_config("simulate"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);

  // Full run first: status ok, requested == completed.
  const Reply full = client.simulate(text, 1000.0, 50, 42);
  ASSERT_TRUE(full.ok()) << full.text;
  EXPECT_EQ(rascad::serve::reply_value(full.text, "requested"), 50.0);
  EXPECT_EQ(rascad::serve::reply_value(full.text, "completed"), 50.0);
  const double mean =
      rascad::serve::reply_value(full.text, "availability_mean");
  EXPECT_GT(mean, 0.9);
  EXPECT_LE(mean, 1.0);

  // Deadline-cut run: still a kResult carrying the completed subset.
  const Reply cut = client.simulate(text, 5000.0, 20000, 42,
                                    /*deadline_ms=*/10);
  ASSERT_EQ(cut.type, FrameType::kResult) << cut.text;
  if (cut.degraded()) {
    EXPECT_EQ(cut.status, PointStatus::kDeadlineExceeded);
    EXPECT_LT(rascad::serve::reply_value(cut.text, "completed"),
              rascad::serve::reply_value(cut.text, "requested"));
  }
}

TEST(ServeEndToEnd, SimulateZeroReplicationsAnswersError) {
  // Zero replications have no statistics; an ok reply with availability 0
  // would read as a real answer.
  ServerFixture server(base_config("simzero"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);
  const std::string text = datacenter_text();
  const Reply zero = client.simulate(text, 1000.0, 0, 42);
  EXPECT_EQ(zero.type, FrameType::kError) << zero.text;
  EXPECT_EQ(zero.status, PointStatus::kFailed);
  EXPECT_NE(zero.text.find("replications"), std::string::npos) << zero.text;
  const Reply no_horizon = client.simulate(text, 0.0, 10, 42);
  EXPECT_EQ(no_horizon.type, FrameType::kError) << no_horizon.text;
  EXPECT_TRUE(client.ping().ok());
}

TEST(ServeEndToEnd, MalformedModelAnswersErrorNotDisconnect) {
  ServerFixture server(base_config("badmodel"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);
  const Reply bad = client.solve("diagram \"Broken\" { block }}}");
  EXPECT_EQ(bad.type, FrameType::kError);
  EXPECT_EQ(bad.status, PointStatus::kFailed);
  EXPECT_FALSE(bad.text.empty());
  // The connection survives the failed request.
  EXPECT_TRUE(client.ping().ok());
  // The failed counter is bumped in finish_request AFTER the error reply
  // is pushed, so the client can observe the reply before the increment
  // lands; poll instead of asserting on the first read.
  std::uint64_t failed = 0;
  for (int i = 0; i < 200; ++i) {
    failed = server.service.stats().failed;
    if (failed >= 1u) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(failed, 1u);
}

/// Raw protocol connection, for frames the typed Client never builds.
int raw_connect(const std::string& path) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(ServeEndToEnd, ShortBodyAnswersErrorNotOverread) {
  // solve/sweep/simulate bodies lead with a u32 deadline; a body shorter
  // than that prefix must be rejected as such, not parsed past its end.
  ServerFixture server(base_config("shortbody"));
  const int fd = raw_connect(server.service.config().socket_path);
  ASSERT_GE(fd, 0);
  std::uint64_t id = 0;
  for (FrameType verb :
       {FrameType::kSolve, FrameType::kSweep, FrameType::kSimulate}) {
    for (std::size_t len : {0u, 1u, 3u}) {
      Frame req;
      req.type = verb;
      req.request_id = ++id;
      req.body.assign(len, '\n');
      rascad::serve::write_frame(fd, req);
      Frame reply;
      ASSERT_TRUE(rascad::serve::read_frame(fd, reply));
      EXPECT_EQ(reply.request_id, id);
      ASSERT_EQ(reply.type, FrameType::kError)
          << rascad::serve::to_string(verb) << " len=" << len;
      ASSERT_FALSE(reply.body.empty());
      EXPECT_EQ(static_cast<PointStatus>(reply.body[0]), PointStatus::kFailed);
      const std::string detail = reply.body.substr(1);
      EXPECT_NE(detail.find(" body is " + std::to_string(len) + " bytes"),
                std::string::npos)
          << detail;
      EXPECT_NE(detail.find("deadline prefix"), std::string::npos) << detail;

      // The connection survives: a ping on it still gets its pong.
      Frame ping;
      ping.type = FrameType::kPing;
      ping.request_id = ++id;
      rascad::serve::write_frame(fd, ping);
      Frame pong;
      ASSERT_TRUE(rascad::serve::read_frame(fd, pong));
      EXPECT_EQ(pong.type, FrameType::kPong);
      EXPECT_EQ(pong.request_id, id);
    }
  }
  ::close(fd);
}

/// Body of a sweep request, laid out as serve::Client::sweep lays it out.
std::string sweep_body(const std::string& model, const char* diagram,
                       const char* block, const char* param, const char* lo,
                       const char* hi, std::size_t points) {
  std::string body;
  rascad::serve::put_u32(body, 0);  // no deadline
  body += std::string(diagram) + "\n" + block + "\n" + param + "\n" + lo +
          "\n" + hi + "\n" + std::to_string(points) + "\n\n" + model;
  return body;
}

Frame request(FrameType type, std::uint64_t id, std::string body = {}) {
  Frame f;
  f.type = type;
  f.request_id = id;
  f.body = std::move(body);
  return f;
}

std::string u32s(std::initializer_list<std::uint32_t> values) {
  std::string body;
  for (const std::uint32_t v : values) rascad::serve::put_u32(body, v);
  return body;
}

TEST(ServeEndToEnd, RequestsSharingAConnectionGetWholeOrderedReplies) {
  // Five requests back to back on one socket, answered by three kinds of
  // writer at once: pool workers (sweep, ping), the reader (metrics,
  // stats) and a watch thread. Each frame must arrive whole and each
  // request's chunks must precede its one terminal frame.
  const std::string text = datacenter_text();
  ServerFixture server(base_config("pipeline"));
  const int fd = raw_connect(server.service.config().socket_path);
  ASSERT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 20;  // a lost terminal frame fails the read, not the suite
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  constexpr std::size_t kPoints = 40;  // three chunks
  enum : std::uint64_t { kSweepId = 1, kPingId, kMetricsId, kWatchId, kStatsId };
  rascad::serve::write_frame(
      fd, request(FrameType::kSweep, kSweepId,
                  sweep_body(text, "Server Box", "Centerplane",
                             "service_response_h", "0.5", "24", kPoints)));
  rascad::serve::write_frame(fd,
                             request(FrameType::kPing, kPingId, u32s({0, 30})));
  rascad::serve::write_frame(fd,
                             request(FrameType::kMetrics, kMetricsId, u32s({1})));
  rascad::serve::write_frame(
      fd, request(FrameType::kWatch, kWatchId, u32s({0, 10, 3})));
  rascad::serve::write_frame(fd, request(FrameType::kStats, kStatsId));

  std::vector<std::string> stream(kStatsId + 1);
  std::vector<std::size_t> chunks(kStatsId + 1, 0);
  std::vector<Frame> terminal(kStatsId + 1);
  std::vector<bool> done(kStatsId + 1, false);
  std::size_t finished = 0;
  while (finished < kStatsId) {
    Frame frame;
    ASSERT_TRUE(rascad::serve::read_frame(fd, frame)) << "EOF mid-reply";
    const std::uint64_t id = frame.request_id;
    ASSERT_GE(id, std::uint64_t{kSweepId});
    ASSERT_LE(id, std::uint64_t{kStatsId});
    ASSERT_FALSE(done[id]) << "frame after the terminal of request " << id;
    if (frame.type == FrameType::kChunk) {
      stream[id] += frame.body;
      ++chunks[id];
      continue;
    }
    terminal[id] = std::move(frame);
    done[id] = true;
    ++finished;
  }
  ::close(fd);

  ASSERT_EQ(terminal[kSweepId].type, FrameType::kResult);
  ASSERT_FALSE(terminal[kSweepId].body.empty());
  EXPECT_EQ(static_cast<PointStatus>(terminal[kSweepId].body[0]),
            PointStatus::kOk);
  EXPECT_EQ(rascad::serve::reply_value(terminal[kSweepId].body.substr(1),
                                       "completed"),
            static_cast<double>(kPoints));
  EXPECT_EQ(chunks[kSweepId], 3u);
  EXPECT_EQ(rascad::core::read_sweep_csv(stream[kSweepId]).size(), kPoints);
  EXPECT_EQ(terminal[kPingId].type, FrameType::kPong);
  EXPECT_EQ(terminal[kMetricsId].type, FrameType::kResult);
  EXPECT_NE(terminal[kMetricsId].body.find("\"type\":\"metrics_delta\""),
            std::string::npos);
  EXPECT_EQ(chunks[kWatchId], 3u);
  EXPECT_EQ(terminal[kWatchId].type, FrameType::kResult);
  EXPECT_NE(terminal[kWatchId].body.find("ticks=3"), std::string::npos);
  EXPECT_EQ(terminal[kStatsId].type, FrameType::kResult);
  EXPECT_NE(terminal[kStatsId].body.find("accepted="), std::string::npos);
  for (const std::uint64_t id : {kPingId, kMetricsId, kStatsId}) {
    EXPECT_EQ(chunks[id], 0u) << "request " << id;
  }
}

TEST(ServeEndToEnd, ClientHangingUpMidReplyLeavesTheDaemonServing) {
  // Two clients send a request and close without reading a byte: a sweep
  // (its worker's sends fail on the dead socket) and an unbounded watch.
  // Both requests are still counted, nothing wedges, other connections
  // are served and stop() stays prompt.
  const std::string text = datacenter_text();
  ServerFixture server(base_config("hangup"));
  const std::string path = server.service.config().socket_path;
  for (Frame req :
       {request(FrameType::kSweep, 1,
                sweep_body(text, "Server Box", "Centerplane",
                           "service_response_h", "0.5", "24", 256)),
        request(FrameType::kWatch, 2, u32s({0, 10, 0}))}) {
    const int fd = raw_connect(path);
    ASSERT_GE(fd, 0);
    rascad::serve::write_frame(fd, req);
    ::close(fd);
  }

  ServiceStats stats;
  const auto settle = std::chrono::steady_clock::now();
  while (ms_since(settle) < 10000.0) {
    stats = server.service.stats();
    if (stats.completed >= 2 && stats.inflight == 0 && stats.watchers == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(stats.accepted, 1u);  // the sweep; a watch is not admitted
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.watchers, 0u);

  Client other;
  other.connect_retry(path, 2000.0);
  EXPECT_TRUE(other.ping().ok());
  EXPECT_TRUE(other.solve(text).ok());

  const auto start = std::chrono::steady_clock::now();
  server.service.stop();
  EXPECT_LT(ms_since(start), 3000.0);
}

TEST(ServeEndToEnd, ConcurrentClientsAllServed) {
  const std::string text = datacenter_text();
  ServiceConfig cfg = base_config("concurrent");
  cfg.queue_capacity = 64;
  ServerFixture server(cfg);
  const std::string path = server.service.config().socket_path;

  // Prime the shared cache so worker threads mostly hit.
  {
    Client warm;
    warm.connect_retry(path, 2000.0);
    ASSERT_TRUE(warm.solve(text).ok());
  }

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequests = 5;
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  double expected = -1.0;
  {
    Client probe;
    probe.connect_retry(path, 2000.0);
    expected = rascad::serve::reply_value(probe.solve(text).text,
                                          "availability");
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      client.connect_retry(path, 2000.0);
      for (std::size_t r = 0; r < kRequests; ++r) {
        const Reply reply = client.solve_retrying(text, 10000.0);
        ASSERT_TRUE(reply.ok()) << "client " << c << ": " << reply.text;
        ASSERT_EQ(rascad::serve::reply_value(reply.text, "availability"),
                  expected);
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  // The terminal frame reaches the client a beat before the server's
  // bookkeeping settles; poll for the counters to catch up.
  ServiceStats stats;
  for (int i = 0; i < 200; ++i) {
    stats = server.service.stats();
    if (stats.completed >= kClients * kRequests && stats.inflight == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(stats.completed, kClients * kRequests);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(ServeEndToEnd, ShutdownVerbSignalsAndStopDrainsInFlight) {
  ServerFixture server(base_config("shutdown"));
  const std::string path = server.service.config().socket_path;

  // An in-flight slow request must complete across stop(), not be killed.
  Client slow;
  slow.connect_retry(path, 2000.0);
  std::atomic<bool> slow_ok{false};
  std::thread slow_thread([&] {
    const Reply r = slow.ping(0, 300);
    slow_ok.store(r.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Client admin;
  admin.connect_retry(path, 2000.0);
  EXPECT_FALSE(server.service.shutdown_requested());
  EXPECT_TRUE(admin.request_shutdown().ok());
  EXPECT_TRUE(server.service.wait_shutdown_requested(2000.0));

  server.service.stop();  // must drain the parked ping first
  slow_thread.join();
  EXPECT_TRUE(slow_ok.load()) << "stop() dropped an in-flight request";
  EXPECT_FALSE(server.service.running());

  // Idempotent: a second stop is a no-op.
  server.service.stop();
}

// ------------------------------------------------------------- scraping ----

/// The registry families only fill in while observability is on; scrape
/// tests flip it for their scope and leave the process state clean.
struct ObsOn {
  ObsOn() {
    rascad::obs::set_enabled(true);
    rascad::obs::Registry::global().reset();
    rascad::obs::clear_trace();
  }
  ~ObsOn() {
    rascad::obs::clear_trace();
    rascad::obs::set_enabled(false);
  }
};

TEST(ServeScrape, MetricsVerbServesTheExpositionPage) {
  ObsOn obs;
  ServerFixture server(base_config("metrics"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);
  ASSERT_TRUE(client.solve(datacenter_text()).ok());
  // The terminal frame races the worker's post-push bookkeeping (latency
  // histogram, inflight decrement); wait for it to settle before scraping.
  ServiceStats settled;
  for (int i = 0; i < 200; ++i) {
    settled = server.service.stats();
    if (settled.completed >= 1 && settled.inflight == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(settled.inflight, 0u);

  const Reply page = client.metrics();
  ASSERT_TRUE(page.ok()) << page.text;
  // Registry families from the solve, in exposition form.
  EXPECT_NE(page.text.find("# TYPE rascad_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(page.text.find("rascad_serve_request_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  // Service-level extras are maintained outside the registry and carry the
  // socket path as an escaped label.
  EXPECT_NE(page.text.find("rascad_serve_info{socket=\""), std::string::npos);
  EXPECT_NE(page.text.find("rascad_serve_stats_completed"),
            std::string::npos);

  // Scrapes are answered on the reader thread: none of them occupied a
  // solver slot, all of them counted.
  const ServiceStats stats = server.service.stats();
  EXPECT_GE(stats.scrapes, 1u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(ServeScrape, DeltaScrapesAreCursoredPerConnection) {
  ObsOn obs;
  ServerFixture server(base_config("delta"));
  const std::string path = server.service.config().socket_path;
  Client first;
  first.connect_retry(path, 2000.0);
  ASSERT_TRUE(first.solve(datacenter_text()).ok());
  for (int i = 0; i < 200; ++i) {  // see the settle note above
    const ServiceStats s = server.service.stats();
    if (s.completed >= 1 && s.inflight == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // First delta scrape on a connection reports the full registry.
  const Reply full = first.metrics(/*delta=*/true);
  ASSERT_TRUE(full.ok());
  EXPECT_NE(full.text.find("\"type\":\"metrics_delta\""), std::string::npos);
  EXPECT_NE(full.text.find("serve.completed"), std::string::npos);

  // Quiet follow-up: the heartbeat line survives, the settled counters
  // drop out (serve.scrapes itself moved — the scrape counted — so the
  // line is not literally empty, but the solve-side series are gone).
  const Reply quiet = first.metrics(/*delta=*/true);
  ASSERT_TRUE(quiet.ok());
  EXPECT_NE(quiet.text.find("\"type\":\"metrics_delta\""), std::string::npos);
  EXPECT_EQ(quiet.text.find("serve.completed"), std::string::npos);

  // A second connection owns its own cursor: its first delta scrape is
  // the full view again, unaffected by the first connection's position.
  Client second;
  second.connect_retry(path, 2000.0);
  const Reply fresh = second.metrics(/*delta=*/true);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.text.find("serve.completed"), std::string::npos);
}

TEST(ServeScrape, WatchStreamsTheRequestedTickCount) {
  ServerFixture server(base_config("watch"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);

  std::size_t chunks = 0;
  const Reply reply =
      client.watch(/*interval_ms=*/20, /*max_ticks=*/3, /*deadline_ms=*/0,
                   [&chunks](std::string_view chunk) {
                     ++chunks;
                     EXPECT_NE(chunk.find("\"type\":\"metrics_delta\""),
                               std::string_view::npos);
                   });
  ASSERT_TRUE(reply.ok()) << reply.text;
  EXPECT_EQ(chunks, 3u);
  EXPECT_NE(reply.text.find("ticks=3"), std::string::npos);
  EXPECT_NE(reply.text.find("status=ok"), std::string::npos);
  EXPECT_FALSE(reply.stream.empty());
}

TEST(ServeScrape, WatchHonorsItsDeadline) {
  ServerFixture server(base_config("watchdl"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);

  // Unbounded tick count, 80ms deadline: the stream must end itself.
  const Reply reply = client.watch(/*interval_ms=*/20, /*max_ticks=*/0,
                                   /*deadline_ms=*/80);
  EXPECT_TRUE(reply.degraded());
  EXPECT_EQ(reply.status, PointStatus::kDeadlineExceeded);
  EXPECT_NE(reply.text.find("status=deadline-exceeded"), std::string::npos);
  EXPECT_FALSE(reply.stream.empty());  // at least the immediate first tick
}

TEST(ServeScrape, StopDrainsAnUnboundedWatchStream) {
  ServerFixture server(base_config("watchstop"));
  Client client;
  client.connect_retry(server.service.config().socket_path, 2000.0);

  // An unbounded watch with no deadline only ends when the server says so.
  std::atomic<std::size_t> chunks{0};
  std::atomic<bool> terminal_ok{false};
  std::thread watcher([&] {
    const Reply reply = client.watch(
        /*interval_ms=*/20, /*max_ticks=*/0, /*deadline_ms=*/0,
        [&chunks](std::string_view) { chunks.fetch_add(1); });
    // stop() must deliver a clean kCancelled terminal, not a dead socket.
    terminal_ok.store(reply.type == FrameType::kResult &&
                      reply.status == PointStatus::kCancelled &&
                      reply.text.find("status=cancelled") !=
                          std::string::npos);
  });

  // Let the stream produce a few chunks before shutting down under it.
  for (int i = 0; i < 400 && chunks.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(chunks.load(), 3u);

  server.service.stop();  // must wake the watcher and drain its terminal
  watcher.join();
  EXPECT_TRUE(terminal_ok.load())
      << "stop() did not drain the watch stream to a cancelled terminal";
  EXPECT_EQ(server.service.stats().watchers, 0u);

  // A watch landing after shutdown is refused immediately, not leaked.
  server.service.stop();
}

}  // namespace
