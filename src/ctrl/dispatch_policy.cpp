#include "ctrl/dispatch_policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sim/simulator.hpp"
#include "util/flags.hpp"

namespace brb::ctrl {

const char* to_string(DispatchMode mode) {
  switch (mode) {
    case DispatchMode::kSingle:
      return "single";
    case DispatchMode::kHedge:
      return "hedge";
    case DispatchMode::kTied:
      return "tied";
    case DispatchMode::kKofn:
      return "kofn";
  }
  return "?";
}

namespace {

/// Quantile as a percent with minimal digits ("95", "99.9").
std::string format_quantile_percent(double quantile) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", quantile * 100.0);
  return buf;
}

/// Milliseconds with minimal digits ("2", "0.5").
std::string format_millis(sim::Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", d.as_millis());
  return buf;
}

}  // namespace

std::string DispatchModeConfig::canonical() const {
  switch (mode) {
    case DispatchMode::kSingle:
      return "single";
    case DispatchMode::kHedge: {
      std::string spec = "hedge:q" + format_quantile_percent(hedge_quantile);
      if (fresh_age > sim::Duration::zero()) spec += ":fresh=" + format_millis(fresh_age);
      return spec;
    }
    case DispatchMode::kTied:
      return "tied";
    case DispatchMode::kKofn:
      return "kofn:" + std::to_string(static_cast<unsigned>(k));
  }
  return "?";
}

// ---------------------------------------------------------------------------
// DispatchPolicy

namespace {

/// Planning scratch shared by every policy on this thread: plan() is
/// never re-entered, so one buffer serves the credit filter and the
/// shrinking sub-lists, and no client carries a vector of its own.
std::vector<store::ServerId>& plan_scratch() {
  // brblint:allow(BRB-D02): content-free reuse — plan() clears or assigns it before every read
  thread_local std::vector<store::ServerId> scratch;
  return scratch;
}

/// The replica with the least `load`, scanning from `start` and
/// keeping the first of equals. The callers rotate the scan start so
/// ties do not herd every client onto the lowest server id (a classic
/// cause of load concentration).
template <typename Load>
store::ServerId least_loaded(const std::vector<store::ServerId>& replicas, std::size_t start,
                             Load load) {
  store::ServerId best = replicas[start];
  auto best_load = load(best);
  for (std::size_t step = 1; step < replicas.size(); ++step) {
    const store::ServerId candidate = replicas[(start + step) % replicas.size()];
    const auto candidate_load = load(candidate);
    if (candidate_load < best_load) {
      best = candidate;
      best_load = candidate_load;
    }
  }
  return best;
}

/// Removes `server` from `list`, keeping the order of the rest.
void drop(std::vector<store::ServerId>& list, store::ServerId server) {
  list.erase(std::remove(list.begin(), list.end(), server), list.end());
}

}  // namespace

DispatchPolicy::DispatchPolicy(ReplicaRule rule, const DispatchModeConfig& mode,
                               const C3ScoreConfig& c3, bool credit_aware,
                               sim::Duration prior_response, util::Rng rng,
                               const sim::Simulator* sim)
    : rng_(rng),
      c3_(c3),
      mode_(mode),
      quantile_factor_(-std::log(1.0 - mode.hedge_quantile)),
      prior_response_(prior_response),
      sim_(sim),
      rule_(rule),
      credit_aware_(credit_aware) {
  if (rule_ == ReplicaRule::kC3 || rule_ == ReplicaRule::kC3NoDerate) {
    if (c3_.queue_exponent < 1.0) {
      throw std::invalid_argument("DispatchPolicy: C3 queue_exponent must be >= 1");
    }
    if (c3_.num_clients == 0) throw std::invalid_argument("DispatchPolicy: C3 num_clients == 0");
  }
  if (mode_.mode == DispatchMode::kHedge) {
    if (!(mode_.hedge_quantile > 0.0 && mode_.hedge_quantile < 1.0)) {
      throw std::invalid_argument("DispatchPolicy: hedge quantile must be in (0, 1)");
    }
    if (prior_response_ <= sim::Duration::zero()) {
      throw std::invalid_argument("DispatchPolicy: hedge prior response must be positive");
    }
  }
  if (mode_.mode == DispatchMode::kKofn && (mode_.k < 1 || mode_.k > DispatchPlan::kMaxTargets)) {
    throw std::invalid_argument("DispatchPolicy: kofn k must be in [1, " +
                                std::to_string(DispatchPlan::kMaxTargets) + "]");
  }
}

std::string DispatchPolicy::name() const {
  std::string name = rule_name(rule_);
  switch (mode_.mode) {
    case DispatchMode::kSingle:
      break;
    case DispatchMode::kHedge:
      name = "hedge:q" + format_quantile_percent(mode_.hedge_quantile) + "(" + name + ")";
      break;
    case DispatchMode::kTied:
      name = "tied(" + name + ")";
      break;
    case DispatchMode::kKofn:
      name = "kofn:" + std::to_string(static_cast<unsigned>(mode_.k)) + "(" + name + ")";
      break;
  }
  return credit_aware_ ? "credit-aware(" + name + ")" : name;
}

store::ServerId DispatchPolicy::select(const SignalTable& signals,
                                       const std::vector<store::ServerId>& replicas) {
  const std::size_t n = replicas.size();
  switch (rule_) {
    case ReplicaRule::kRandom:
      return replicas[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
    case ReplicaRule::kRoundRobin:
      return replicas[static_cast<std::size_t>(cursor_++ % n)];
    case ReplicaRule::kLeastOutstanding:
      return least_loaded(replicas, static_cast<std::size_t>(cursor_++ % n),
                          [&](store::ServerId s) { return signals.outstanding(s); });
    case ReplicaRule::kLeastPendingCost:
      return least_loaded(replicas, static_cast<std::size_t>(cursor_++ % n),
                          [&](store::ServerId s) { return signals.pending_cost(s); });
    case ReplicaRule::kTwoChoices: {
      if (n == 1) return replicas.front();
      // Two distinct uniform indices; the second draw excludes the first.
      const auto i =
          static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      auto j = static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 2));
      if (j >= i) ++j;
      const store::ServerId a = replicas[i];
      const store::ServerId b = replicas[j];
      const std::uint32_t load_a = signals.outstanding(a);
      const std::uint32_t load_b = signals.outstanding(b);
      if (load_a != load_b) return load_a < load_b ? a : b;
      return a < b ? a : b;
    }
    case ReplicaRule::kC3:
    case ReplicaRule::kC3NoDerate: {
      store::ServerId best = replicas.front();
      double best_score = c3_score(c3_, signals, best);
      for (std::size_t i = 1; i < n; ++i) {
        const double candidate = c3_score(c3_, signals, replicas[i]);
        if (candidate < best_score || (candidate == best_score && replicas[i] < best)) {
          best = replicas[i];
          best_score = candidate;
        }
      }
      return best;
    }
    case ReplicaRule::kFirst:
      return replicas.front();
  }
  throw std::logic_error("DispatchPolicy: unknown replica rule");
}

DispatchPlan DispatchPolicy::plan(const SignalTable& signals,
                                  const std::vector<store::ServerId>& replicas,
                                  sim::Duration /*expected_cost*/) {
  if (replicas.empty()) throw std::invalid_argument("DispatchPolicy::plan: empty replica set");
  if (!credit_aware_ && mode_.mode == DispatchMode::kSingle) {
    return DispatchPlan::single(select(signals, replicas));
  }

  // Credit filter: the funded replicas, unless all or none are.
  std::vector<store::ServerId>& scratch = plan_scratch();
  const std::vector<store::ServerId>* set = &replicas;
  if (credit_aware_) {
    scratch.clear();
    for (const store::ServerId s : replicas) {
      if (signals.credit_balance(s) >= 1.0) scratch.push_back(s);
    }
    if (!scratch.empty() && scratch.size() != replicas.size()) set = &scratch;
  }

  const std::size_t n = set->size();
  DispatchPlan out = DispatchPlan::single(select(signals, *set));
  if (mode_.mode == DispatchMode::kSingle || n < 2) return out;  // nobody to duplicate onto

  // Signal-aware skip: when the primary's feedback is fresher than the
  // configured age, the queue estimate that chose it is current enough
  // to trust — spend no duplicate work. Checked before the back-up
  // pick so the rule's decision stream is untouched too.
  if (mode_.mode == DispatchMode::kHedge && mode_.fresh_age > sim::Duration::zero() &&
      sim_ != nullptr) {
    const std::int64_t last_ns = signals.last_feedback_ns(out.primary());
    if (last_ns >= 0 && sim_->now() - sim::Time::nanos(last_ns) < mode_.fresh_age) {
      out.skipped_fresh = true;
      return out;
    }
  }

  // Every further target is a pick over the replicas not yet chosen.
  if (set != &scratch) scratch.assign(replicas.begin(), replicas.end());
  drop(scratch, out.primary());
  out.mode = mode_.mode;
  const std::size_t targets =
      mode_.mode == DispatchMode::kKofn ? std::min(n, DispatchPlan::kMaxTargets) : 2;
  for (out.num_targets = 1; out.num_targets < targets; ++out.num_targets) {
    out.targets[out.num_targets] = select(signals, scratch);
    drop(scratch, out.targets[out.num_targets]);
  }

  if (mode_.mode == DispatchMode::kKofn) {
    out.needed = static_cast<std::uint8_t>(std::min<std::size_t>(mode_.k, targets));
  } else if (mode_.mode == DispatchMode::kHedge) {
    // Deadline: configured quantile of the primary's response-time
    // distribution under an exponential-tail assumption, t_q =
    // -ln(1-q) * mean. Unseen servers fall back to the configured prior.
    const double ewma_ns = signals.ewma_response_ns(out.primary());
    const double mean_ns = signals.seen(out.primary()) && ewma_ns > 0.0
                               ? ewma_ns
                               : static_cast<double>(prior_response_.count_nanos());
    out.hedge_delay = sim::Duration::nanos(static_cast<std::int64_t>(quantile_factor_ * mean_ns));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Mode registry

const std::vector<DispatchModeInfo>& dispatch_mode_catalog() {
  static const std::vector<DispatchModeInfo> catalog = {
      {"single", "single", "one target per request, no duplicates (legacy behavior)"},
      {"hedge", "hedge[:qNN][:fresh=MS]",
       "back-up copy if the primary misses its qNN response-EWMA deadline (default q95); "
       "fresh=MS skips the back-up when the primary's feedback is younger than MS milliseconds"},
      {"tied", "tied", "two copies enqueued at once; first service start cancels the sibling"},
      {"kofn", "kofn[:K]",
       "fan out to up to 4 replicas, complete on the K-th response (default K=2)"},
  };
  return catalog;
}

bool is_dispatch_mode_name(const std::string& head) {
  for (const DispatchModeInfo& info : dispatch_mode_catalog()) {
    if (info.name == head) return true;
  }
  return false;
}

DispatchModeConfig parse_dispatch_mode(const std::string& spec) {
  if (spec.empty()) throw std::invalid_argument("empty dispatch mode spec");
  const auto colon = spec.find(':');
  const std::string head = spec.substr(0, colon);
  const std::string param = colon == std::string::npos ? "" : spec.substr(colon + 1);
  const bool has_param = colon != std::string::npos;

  if (!is_dispatch_mode_name(head)) {
    std::vector<std::string> known;
    for (const DispatchModeInfo& info : dispatch_mode_catalog()) known.push_back(info.name);
    std::string message = "unknown dispatch mode '" + head + "'";
    if (const auto suggestion = util::closest_name(head, known)) {
      message += " (did you mean '" + *suggestion + "'?)";
    }
    throw std::invalid_argument(message);
  }

  DispatchModeConfig config;
  if (head == "single" || head == "tied") {
    if (has_param) {
      throw std::invalid_argument("dispatch mode '" + head + "' takes no parameter (got '" + spec +
                                  "')");
    }
    config.mode = head == "tied" ? DispatchMode::kTied : DispatchMode::kSingle;
    return config;
  }

  if (head == "hedge") {
    config.mode = DispatchMode::kHedge;
    // Zero or more ':'-separated parameters, each qNN (deadline
    // quantile, percent) or fresh=MS (freshness-skip age threshold,
    // milliseconds).
    std::string rest = has_param ? param : "";
    while (!rest.empty()) {
      const auto next = rest.find(':');
      const std::string token = rest.substr(0, next);
      rest = next == std::string::npos ? "" : rest.substr(next + 1);
      if (token.size() >= 2 && token[0] == 'q') {
        std::size_t consumed = 0;
        double percent = 0.0;
        try {
          percent = std::stod(token.substr(1), &consumed);
        } catch (const std::exception&) {
          throw std::invalid_argument("hedge parameter must be qNN (a percent), got '" + spec +
                                      "'");
        }
        if (consumed != token.size() - 1 || !(percent > 0.0 && percent < 100.0)) {
          throw std::invalid_argument("hedge quantile must be a percent in (0, 100), got '" +
                                      spec + "'");
        }
        config.hedge_quantile = percent / 100.0;
      } else if (token.rfind("fresh=", 0) == 0) {
        const std::string value = token.substr(6);
        std::size_t consumed = 0;
        double millis = 0.0;
        try {
          millis = std::stod(value, &consumed);
        } catch (const std::exception&) {
          throw std::invalid_argument("hedge fresh= must be milliseconds, got '" + spec + "'");
        }
        if (value.empty() || consumed != value.size() || !(millis > 0.0)) {
          throw std::invalid_argument("hedge fresh= must be positive milliseconds, got '" + spec +
                                      "'");
        }
        config.fresh_age = sim::Duration::millis(millis);
      } else {
        throw std::invalid_argument("hedge parameter must be qNN or fresh=MS, got '" + spec +
                                    "'");
      }
    }
    return config;
  }

  // kofn
  config.mode = DispatchMode::kKofn;
  if (has_param) {
    std::size_t consumed = 0;
    long k = 0;
    try {
      k = std::stol(param, &consumed);
    } catch (const std::exception&) {
      throw std::invalid_argument("kofn parameter must be an integer k, got '" + spec + "'");
    }
    if (consumed != param.size() || k < 1 ||
        k > static_cast<long>(DispatchPlan::kMaxTargets)) {
      throw std::invalid_argument("kofn k must be in [1, " +
                                  std::to_string(DispatchPlan::kMaxTargets) + "], got '" + spec +
                                  "'");
    }
    config.k = static_cast<std::uint8_t>(k);
  }
  return config;
}

std::unique_ptr<DispatchPolicy> make_dispatch_policy(const std::string& policy_name,
                                                     const DispatchModeConfig& mode,
                                                     const C3ScoreConfig& c3, bool credit_aware,
                                                     sim::Duration prior_response, util::Rng rng,
                                                     const sim::Simulator* sim) {
  return std::make_unique<DispatchPolicy>(replica_rule(policy_name), mode, c3, credit_aware,
                                          prior_response, rng, sim);
}

// ---------------------------------------------------------------------------
// DispatchEndpoint

DispatchEndpoint::DispatchEndpoint(SignalTableConfig signals, DispatchPolicy policy,
                                   util::Rng rng, store::TenantId tenant)
    : signals_(signals), policy_(std::move(policy)), rng_(rng), tenant_(tenant) {}

}  // namespace brb::ctrl
