#include "workload/capacity.hpp"

#include <limits>
#include <sstream>

#include "util/flags.hpp"

namespace brb::workload {

namespace {

void validate_classes(const std::vector<ServerClass>& classes) {
  if (classes.empty()) return;
  for (const ServerClass& c : classes) {
    if (c.count == 0) throw std::invalid_argument("ClusterSpec: class with zero servers");
    if (c.cores == 0) throw std::invalid_argument("ClusterSpec: class with zero cores");
    if (c.rate_per_core <= 0.0) {
      throw std::invalid_argument("ClusterSpec: class with non-positive service rate");
    }
  }
}

/// One class of the profile `spec`.
ServerClass parse_class(const std::string& part, const std::string& spec) {
  // COUNTxCORESxRATE, e.g. "6x4x3500".
  std::vector<std::string> fields;
  std::stringstream ss(part);
  for (std::string field; std::getline(ss, field, 'x');) fields.push_back(field);
  if (fields.size() != 3) {
    throw std::invalid_argument("ClusterSpec: expected COUNTxCORESxRATE, got '" + part + "'");
  }
  const auto whole = [&](const std::string& field) {
    return static_cast<std::uint32_t>(
        util::parse_spec_count(field, spec, std::numeric_limits<std::uint32_t>::max()));
  };
  ServerClass c;
  c.count = whole(fields[0]);
  c.cores = whole(fields[1]);
  c.rate_per_core = util::parse_spec_number(fields[2], spec);
  return c;
}

}  // namespace

const ServerClass& ClusterSpec::class_of(store::ServerId server) const {
  for (const ServerClass& c : classes) {
    if (server < c.count) return c;
    server -= c.count;
  }
  throw std::out_of_range("ClusterSpec: server outside fleet");
}

std::uint32_t ClusterSpec::cores_of(store::ServerId server) const {
  if (classes.empty()) return cores_per_server;
  return class_of(server).cores;
}

double ClusterSpec::rate_of(store::ServerId server) const {
  if (classes.empty()) return service_rate_per_core;
  return class_of(server).rate_per_core;
}

double ClusterSpec::capacity_of(store::ServerId server) const {
  if (classes.empty()) {
    return static_cast<double>(cores_per_server) * service_rate_per_core;
  }
  const ServerClass& c = class_of(server);
  return static_cast<double>(c.cores) * c.rate_per_core;
}

std::uint64_t ClusterSpec::total_cores() const noexcept {
  if (classes.empty()) {
    return static_cast<std::uint64_t>(num_servers) * cores_per_server;
  }
  std::uint64_t total = 0;
  for (const ServerClass& c : classes) {
    total += static_cast<std::uint64_t>(c.count) * c.cores;
  }
  return total;
}

ClusterSpec ClusterSpec::parse(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("ClusterSpec: expected 'hetero:...' or 'uniform:...', got '" +
                                spec + "'");
  }
  const std::string kind = spec.substr(0, colon);
  const std::string body = spec.substr(colon + 1);
  ClusterSpec out;
  if (kind == "uniform") {
    const ServerClass c = parse_class(body, spec);
    validate_classes({c});
    out.num_servers = c.count;
    out.cores_per_server = c.cores;
    out.service_rate_per_core = c.rate_per_core;
    return out;
  }
  if (kind != "hetero") {
    throw std::invalid_argument("ClusterSpec: unknown profile kind '" + kind + "'");
  }
  for (const std::string& part : util::split_list(body)) {
    out.classes.push_back(parse_class(part, spec));
  }
  validate_classes(out.classes);
  if (out.classes.empty()) throw std::invalid_argument("ClusterSpec: empty hetero profile");
  std::uint64_t total = 0;
  for (const ServerClass& c : out.classes) total += c.count;
  out.num_servers = static_cast<std::uint32_t>(total);
  // Keep the scalar fields describing the first class so code that
  // only reads them sees something sane; all sized arithmetic goes
  // through the per-server accessors.
  out.cores_per_server = out.classes.front().cores;
  out.service_rate_per_core = out.classes.front().rate_per_core;
  return out;
}

std::string ClusterSpec::describe() const {
  std::ostringstream os;
  if (classes.empty()) {
    os << num_servers << "x" << cores_per_server << "x" << service_rate_per_core;
    return os.str();
  }
  os << "hetero:";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (i != 0) os << ",";
    os << classes[i].count << "x" << classes[i].cores << "x" << classes[i].rate_per_core;
  }
  return os.str();
}

CapacityPlanner::CapacityPlanner(ClusterSpec spec) : spec_(std::move(spec)) {
  validate_classes(spec_.classes);
  if (spec_.num_servers == 0 || spec_.total_cores() == 0) {
    throw std::invalid_argument("CapacityPlanner: empty cluster");
  }
  if (spec_.classes.empty() && spec_.service_rate_per_core <= 0.0) {
    throw std::invalid_argument("CapacityPlanner: non-positive service rate");
  }
  if (spec_.heterogeneous()) {
    std::uint64_t total = 0;
    double capacity = 0.0;
    for (const ServerClass& c : spec_.classes) {
      total += c.count;
      capacity += static_cast<double>(c.count) * static_cast<double>(c.cores) * c.rate_per_core;
    }
    if (total != spec_.num_servers) {
      throw std::invalid_argument("CapacityPlanner: num_servers disagrees with class counts");
    }
    capacity_rps_ = capacity;
  } else {
    // The pre-hetero single-expression product, kept verbatim so
    // homogeneous runs stay bit-identical.
    capacity_rps_ = static_cast<double>(spec_.num_servers) *
                    static_cast<double>(spec_.cores_per_server) * spec_.service_rate_per_core;
  }
}

double CapacityPlanner::system_capacity_rps() const noexcept { return capacity_rps_; }

double CapacityPlanner::request_rate_for_utilization(double utilization) const {
  if (utilization < 0.0) throw std::invalid_argument("CapacityPlanner: negative utilization");
  return utilization * system_capacity_rps();
}

double CapacityPlanner::task_rate_for_utilization(double utilization, double mean_fanout) const {
  if (mean_fanout <= 0.0) throw std::invalid_argument("CapacityPlanner: mean fan-out <= 0");
  return request_rate_for_utilization(utilization) / mean_fanout;
}

double CapacityPlanner::utilization_for_task_rate(double task_rate, double mean_fanout) const {
  if (task_rate < 0.0 || mean_fanout <= 0.0) {
    throw std::invalid_argument("CapacityPlanner: bad task rate or fan-out");
  }
  return task_rate * mean_fanout / system_capacity_rps();
}

}  // namespace brb::workload
