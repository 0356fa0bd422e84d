// JSONL sink for per-replication simulator records.
//
// replicate_system_streaming folds replications in index order on its
// calling thread and appends each record here as it folds it, one line per
// replication (obs::json_number shortest-round-trip doubles, same
// machinery as the telemetry JSONL sink). Lines are buffered by the
// stream; a failed write is reported rather than lost: check() throws
// once the stream has failed, and close() flushes and checks.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

namespace rascad::sim {

class ReplicationSink {
 public:
  struct Record {
    std::uint64_t index = 0;
    double availability = 0.0;
    double downtime_min = 0.0;
    std::uint64_t outages = 0;
    std::uint64_t events = 0;
  };

  /// Opens `path` for appending. Throws std::runtime_error when the file
  /// cannot be opened.
  explicit ReplicationSink(const std::string& path);

  /// Appends one record.
  void push(const Record& rec);

  /// Throws std::runtime_error naming the path if a write has failed.
  void check() const;

  /// Flushes and closes the file, then check()s.
  void close();

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace rascad::sim
