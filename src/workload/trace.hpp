// Trace file I/O.
//
// Serializes generated task streams so experiments can replay the exact
// same workload across systems, processes, and (if exported) external
// tools. Format: one task per line,
//   task_id,client,arrival_ns,key:size;key:size;...
// with a single header line "#brb-trace-v1".
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/task.hpp"

namespace brb::workload {

class TraceWriter {
 public:
  static void write(std::ostream& os, const std::vector<TaskSpec>& tasks);
  static void write_file(const std::string& path, const std::vector<TaskSpec>& tasks);
};

class TraceReader {
 public:
  /// Parses a trace; throws std::runtime_error, naming the line, on
  /// malformed input. Every field is a whole unsigned decimal within
  /// its type (arrival_ns a non-negative int64).
  static std::vector<TaskSpec> read(std::istream& is);
  static std::vector<TaskSpec> read_file(const std::string& path);
};

}  // namespace brb::workload
