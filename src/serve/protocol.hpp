// Wire protocol of the rascad_serve daemon: length-prefixed frames over a
// stream socket.
//
// Frame layout (all integers little-endian):
//
//   u32 length        bytes that follow (type + request_id + body)
//   u8  type          FrameType
//   u64 request_id    client-chosen; echoed verbatim on every response
//   ...body           type-specific payload
//
// Request bodies (client -> server):
//   kPing      [u32 deadline_ms [u32 sleep_ms]]  sleep_ms is a diagnostics
//              aid: the server parks the worker that long (checking the
//              request token, so a deadline cuts it short) before ponging.
//   kSolve     u32 deadline_ms, then `.rsc` model text.
//   kSweep     u32 deadline_ms, then six header lines
//              (diagram, block, parameter, lo, hi, points), one blank
//              line, then `.rsc` model text.
//   kSimulate  u32 deadline_ms, then three header lines
//              (horizon_h, replications, seed), one blank line, then
//              `.rsc` model text.
//   kStats     empty.
//   kShutdown  empty.
//   kMetrics   [u32 flags]  bit 0 set -> delta mode: only metrics that
//              changed since this CONNECTION's previous delta scrape (the
//              cursor lives in the session). Clear/absent -> the full
//              Prometheus-style exposition page.
//   kWatch     u32 deadline_ms, u32 interval_ms, u32 max_ticks.
//              Streams one kChunk of JSONL telemetry (metrics_delta line +
//              new span/event lines) every interval_ms until max_ticks
//              chunks were sent (0 = until the deadline/shutdown), then a
//              terminal kResult. Served by a dedicated scraper thread —
//              never a solver pool slot, never admission-gated.
//
// deadline_ms == 0 means "no deadline from the client" (the server's
// configured default, if any, still applies).
//
// Response bodies (server -> client):
//   kPong        empty.
//   kChunk       raw payload fragment (sweep CSV rows); zero or more
//                precede the terminal frame of the same request_id.
//   kResult      u8 status (robust::PointStatus), then result text. A
//                non-kOk status on kResult means *partial* results: the
//                chunks carry everything that completed, the status says
//                why the rest is missing.
//   kError       u8 status, then the error message (no usable result).
//   kRetryAfter  u32 retry_after_ms, then a human-readable reason — the
//                admission queue was full; try again after the hint.
//
// Frames from concurrent requests on one connection may interleave; the
// request_id is the demultiplexing key. Responses to a single request are
// in order (one thread writes them all, one whole frame at a time).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "robust/cancel.hpp"

namespace rascad::serve {

enum class FrameType : std::uint8_t {
  // requests
  kPing = 1,
  kSolve = 2,
  kSweep = 3,
  kSimulate = 4,
  kStats = 5,
  kShutdown = 6,
  kMetrics = 7,
  kWatch = 8,
  // responses
  kPong = 0x81,
  kChunk = 0x82,
  kResult = 0x83,
  kError = 0x84,
  kRetryAfter = 0x85,
};

const char* to_string(FrameType type) noexcept;

inline bool is_response(FrameType type) noexcept {
  return static_cast<std::uint8_t>(type) >= 0x81;
}

/// True for the frame that ends a response stream (everything but kChunk).
inline bool is_terminal(FrameType type) noexcept {
  return is_response(type) && type != FrameType::kChunk;
}

struct Frame {
  FrameType type{};
  std::uint64_t request_id = 0;
  std::string body;
};

/// Hard cap on one frame's encoded size; a peer announcing more is treated
/// as a protocol violation, not an allocation request.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Most points one sweep request may ask for; a larger count is answered
/// with kError before anything is allocated for it.
inline constexpr std::size_t kMaxSweepPoints = std::size_t{1} << 16;

/// Bytes of `u32 length` prefix + `u8 type` + `u64 request_id`.
inline constexpr std::size_t kFrameOverhead = 4 + 1 + 8;

std::string encode_frame(const Frame& frame);

/// Little-endian scalar accessors for frame bodies. The getters throw
/// std::invalid_argument when the body is too short.
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
std::uint32_t get_u32(std::string_view body, std::size_t offset);
std::uint64_t get_u64(std::string_view body, std::size_t offset);

/// Blocking frame read. Returns false on a clean EOF at a frame boundary;
/// throws std::runtime_error on syscall failure, a truncated frame, or an
/// oversized length announcement.
bool read_frame(int fd, Frame& out);

/// Blocking full write; throws std::runtime_error on failure (EPIPE
/// included — callers treat it as "connection gone").
void write_all(int fd, const char* data, std::size_t n);

inline void write_frame(int fd, const Frame& frame) {
  const std::string encoded = encode_frame(frame);
  write_all(fd, encoded.data(), encoded.size());
}

/// Response-body helpers: terminal result/error frames lead with one
/// status byte.
Frame make_result(std::uint64_t request_id, robust::PointStatus status,
                  std::string text);
Frame make_error(std::uint64_t request_id, robust::PointStatus status,
                 std::string message);
Frame make_chunk(std::uint64_t request_id, std::string payload);
Frame make_retry_after(std::uint64_t request_id, double retry_after_ms,
                       std::string reason);

}  // namespace rascad::serve
