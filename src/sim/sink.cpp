#include "sim/sink.hpp"

#include <stdexcept>
#include <string>

#include "obs/jsonl.hpp"

namespace rascad::sim {

namespace {

std::string format_record(const ReplicationSink::Record& rec) {
  std::string line;
  line.reserve(128);
  line += "{\"type\":\"replication\",\"index\":";
  line += std::to_string(rec.index);
  line += ",\"availability\":";
  line += obs::json_number(rec.availability);
  line += ",\"downtime_min\":";
  line += obs::json_number(rec.downtime_min);
  line += ",\"outages\":";
  line += std::to_string(rec.outages);
  line += ",\"events\":";
  line += std::to_string(rec.events);
  line += "}\n";
  return line;
}

}  // namespace

ReplicationSink::ReplicationSink(const std::string& path)
    : path_(path), out_(path, std::ios::app) {
  if (!out_) {
    throw std::runtime_error("ReplicationSink: cannot open '" + path + "'");
  }
}

void ReplicationSink::push(const Record& rec) { out_ << format_record(rec); }

void ReplicationSink::check() const {
  if (!out_) {
    throw std::runtime_error("ReplicationSink: write to '" + path_ +
                             "' failed");
  }
}

void ReplicationSink::close() {
  out_.flush();
  out_.close();
  check();
}

}  // namespace rascad::sim
