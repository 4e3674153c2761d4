#include "workload/trace.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "util/flags.hpp"

namespace brb::workload {

namespace {
constexpr const char* kHeader = "#brb-trace-v1";

/// Splits `text` at its first `separator`: returns the part before it
/// and leaves the part after it in `text` (empty when there is none).
std::string_view take(std::string_view& text, char separator) {
  const std::size_t at = text.find(separator);
  const std::string_view head = text.substr(0, at);
  text.remove_prefix(at == std::string_view::npos ? text.size() : at + 1);
  return head;
}

/// The whole of `text` as a decimal integer no larger than the maximum
/// of `Int`.
template <typename Int>
Int parse_field(std::string_view text, const char* what) {
  const std::optional<std::uint64_t> value = util::parse_decimal(text);
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<Int>::max());
  if (!value || *value > kMax) {
    throw std::runtime_error(std::string("bad ") + what + " '" + std::string(text) +
                             "' (expected a decimal integer in [0, " + std::to_string(kMax) +
                             "])");
  }
  return static_cast<Int>(*value);
}
}  // namespace

void TraceWriter::write(std::ostream& os, const std::vector<TaskSpec>& tasks) {
  os << kHeader << '\n';
  for (const TaskSpec& task : tasks) {
    os << task.id << ',' << task.client << ',' << task.arrival.count_nanos() << ',';
    for (std::size_t i = 0; i < task.requests.size(); ++i) {
      if (i > 0) os << ';';
      os << task.requests[i].key << ':' << task.requests[i].size_hint;
    }
    os << '\n';
  }
}

void TraceWriter::write_file(const std::string& path, const std::vector<TaskSpec>& tasks) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("TraceWriter: cannot open " + path);
  write(out, tasks);
  if (!out) throw std::runtime_error("TraceWriter: write failed for " + path);
}

std::vector<TaskSpec> TraceReader::read(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    throw std::runtime_error("TraceReader: missing trace header");
  }
  std::vector<TaskSpec> tasks;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    TaskSpec task;
    try {
      std::string_view rest = line;
      task.id = parse_field<store::TaskId>(take(rest, ','), "task id");
      task.client = parse_field<store::ClientId>(take(rest, ','), "client");
      task.arrival = sim::Time::nanos(parse_field<std::int64_t>(take(rest, ','), "arrival"));
      for (bool more = !rest.empty(); more;) {
        more = rest.find(';') != std::string_view::npos;
        std::string_view request = take(rest, ';');
        RequestSpec spec;
        spec.key = parse_field<store::KeyId>(take(request, ':'), "key");
        spec.size_hint = parse_field<std::uint32_t>(request, "size");
        task.requests.push_back(spec);
      }
      if (task.requests.empty()) throw std::runtime_error("task with no requests");
    } catch (const std::exception& e) {
      throw std::runtime_error("TraceReader: line " + std::to_string(line_no) + ": " + e.what());
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

std::vector<TaskSpec> TraceReader::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("TraceReader: cannot open " + path);
  return read(in);
}

}  // namespace brb::workload
