// Engine micro-benchmarks.
//
// Self-contained (no google-benchmark dependency): times the substrate
// pieces the figure-scale simulations lean on, one structure per row.
// The numbers are informational; the perf gate is the same-machine
// A/B of the repo benchmark (bench/perf/ab.py).
//
//   bench_micro_engine [--quick]
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/dispatch_policy.hpp"
#include "ctrl/signal_table.hpp"
#include "server/backend_server.hpp"
#include "server/queue_discipline.hpp"
#include "server/service_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "store/partitioner.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "workload/task_gen.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct MicroResult {
  std::string name;
  double ops_per_sec = 0.0;
};

template <typename Body>
MicroResult run_micro(const std::string& name, std::uint64_t ops, Body&& body) {
  const auto start = Clock::now();
  body();
  const double elapsed = seconds_since(start);
  return {name, elapsed > 0 ? static_cast<double>(ops) / elapsed : 0.0};
}

MicroResult bench_event_queue_push_pop(std::uint64_t rounds) {
  // Absolute times in [0, 1 ms) every round: after the first round the
  // cursor sits near 1 ms, so every push lands at or before it and
  // merge-inserts into the ready run (O(run length)). No simulation
  // schedules behind the cursor like this; wheel_short_delta_push_pop
  // is the steady-state pattern.
  brb::sim::EventQueue queue;
  brb::util::Rng rng(1);
  const std::uint64_t batch = 1024;
  return run_micro("event_queue_push_pop", rounds * batch, [&] {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (std::uint64_t i = 0; i < batch; ++i) {
        queue.push(brb::sim::Time::nanos(rng.uniform_int(0, 1'000'000)), brb::sim::Event{});
      }
      while (auto entry = queue.pop()) {
        if (entry->when.count_nanos() < 0) std::abort();  // keep the loop live
      }
    }
  });
}

MicroResult bench_event_queue_cancel(std::uint64_t rounds) {
  // Schedule/cancel churn: every event is cancelled before it can run.
  // O(1) cancellation (an intrusive-list unlink) keeps this linear in
  // the event count; the seed-era linear scan made it quadratic.
  brb::sim::EventQueue queue;
  brb::util::Rng rng(2);
  const std::uint64_t batch = 1024;
  std::vector<brb::sim::EventId> ids(batch);
  return run_micro("event_queue_cancel", rounds * batch, [&] {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (std::uint64_t i = 0; i < batch; ++i) {
        ids[i] =
            queue.push(brb::sim::Time::nanos(rng.uniform_int(0, 1'000'000)), brb::sim::Event{});
      }
      for (std::uint64_t i = 0; i < batch; ++i) {
        if (!queue.cancel(ids[i])) std::abort();
      }
    }
  });
}

MicroResult bench_wheel_short_delta_push_pop(std::uint64_t rounds) {
  // Steady-state wheel traffic: every push lands a short delta ahead
  // of the advancing cursor (levels 0-1), every pop drains in tick
  // order — the pattern network deliveries and service completions
  // produce at paper scale. Every push is past the cursor's granule,
  // so this isolates the O(1) link/unlink path from ready-run inserts.
  brb::sim::EventQueue queue;
  brb::util::Rng rng(3);
  const std::uint64_t batch = 1024;
  std::int64_t now = 0;
  return run_micro("wheel_short_delta_push_pop", rounds * batch, [&] {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (std::uint64_t i = 0; i < batch; ++i) {
        queue.push(brb::sim::Time::nanos(now + rng.uniform_int(4'096, 1'000'000)),
                   brb::sim::Event{});
      }
      if (queue.size() != batch) std::abort();
      while (auto entry = queue.pop()) now = entry->when.count_nanos();
    }
  });
}

MicroResult bench_wheel_cascade(std::uint64_t rounds) {
  // Far-delta events (levels 2-3): each pop first lazily relinks the
  // event down through the lower levels — the full cascade path, cost
  // amortized O(1) but with the worst constant the wheel has.
  brb::sim::EventQueue queue;
  brb::util::Rng rng(4);
  const std::uint64_t batch = 256;
  std::int64_t now = 0;
  return run_micro("wheel_cascade_far_delta", rounds * batch, [&] {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (std::uint64_t i = 0; i < batch; ++i) {
        queue.push(brb::sim::Time::nanos(now + rng.uniform_int(300'000'000, 50'000'000'000)),
                   brb::sim::Event{});
      }
      while (auto entry = queue.pop()) now = entry->when.count_nanos();
    }
  });
}

MicroResult bench_same_timestamp_burst(std::uint64_t rounds) {
  // Same-timestamp burst delivery (a wave of network deliveries at one
  // instant): the whole coincident group drains into one ready run,
  // then pop() hands out each record in scheduling order — the path
  // Simulator::run() drives for every event.
  brb::sim::EventQueue queue;
  const brb::sim::Event one{brb::sim::EventKind::kCallable, 0, 1};
  const std::uint64_t batch = 1024;
  std::int64_t now = 0;
  std::uint64_t ran = 0;
  MicroResult result = run_micro("same_timestamp_burst", rounds * batch, [&] {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      now += 1'000'000;
      for (std::uint64_t i = 0; i < batch; ++i) {
        queue.push(brb::sim::Time::nanos(now), one);
      }
      while (auto entry = queue.pop()) {
        if (entry->when.count_nanos() != now) std::abort();
        ran += entry->event.payload;
      }
    }
  });
  if (ran != rounds * batch) std::abort();
  return result;
}

MicroResult bench_simulator_self_scheduling(std::uint64_t rounds) {
  // One chain on a fresh Simulator per round: each event schedules the
  // next 100 ns later, so every event is one pop, one dispatch and one
  // push of an 8-byte callable.
  struct Chain {
    brb::sim::Simulator sim;
    std::uint64_t remaining = 10'000;
    void tick() {
      if (--remaining > 0) sim.schedule_after(brb::sim::Duration::nanos(100), [this] { tick(); });
    }
  };
  return run_micro("simulator_self_scheduling", rounds * 10'000, [&] {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      Chain chain;
      chain.sim.schedule_after(brb::sim::Duration::nanos(100), [&chain] { chain.tick(); });
      chain.sim.run();
    }
  });
}

MicroResult bench_simulator_chains(std::uint64_t events) {
  // 100 concurrent self-rescheduling chains with exponential gaps
  // (mean 30 us), bench/perf's engine replay at paper-like
  // concurrency: pushes spread over the wheel's low levels.
  struct Chains {
    brb::sim::Simulator sim;
    std::vector<brb::sim::Duration> gaps;
    std::size_t cursor = 0;
    std::uint64_t remaining = 0;
    void fire() {
      if (remaining == 0) return;
      --remaining;
      sim.schedule_after(gaps[cursor++ & (gaps.size() - 1)], [this] { fire(); });
    }
  } chains;
  chains.remaining = events;
  brb::util::Rng rng(7);
  for (int i = 0; i < 4096; ++i) {
    chains.gaps.push_back(
        brb::sim::Duration::nanos(1 + static_cast<std::int64_t>(rng.exponential(30'000.0))));
  }
  MicroResult result = run_micro("simulator_chains_100", events, [&] {
    for (int c = 0; c < 100; ++c) chains.fire();
    chains.sim.run();
  });
  if (chains.sim.events_processed() != events) std::abort();
  return result;
}

MicroResult bench_priority_discipline(std::uint64_t rounds) {
  brb::server::PriorityDiscipline discipline;
  brb::util::Rng rng(5);
  const std::uint64_t batch = 512;
  return run_micro("priority_discipline", rounds * batch, [&] {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (std::uint64_t i = 0; i < batch; ++i) {
        brb::server::QueuedRead read;
        read.request.priority = rng.uniform();
        discipline.push(std::move(read));
      }
      while (auto read = discipline.pop()) {
        if (read->request.priority < 0) std::abort();
      }
    }
  });
}

MicroResult bench_c3_scoring(std::uint64_t ops) {
  // C3's replica ranking over one client's SignalTable — the plan the
  // production dispatch path makes per request.
  brb::ctrl::C3ScoreConfig config;
  config.num_clients = 18;
  const auto policy = brb::ctrl::make_dispatch_policy(
      "c3", {}, config, false, config.prior_service_time, brb::util::Rng(1));
  brb::ctrl::SignalTable signals;
  const std::vector<brb::store::ServerId> replicas = {0, 1, 2};
  brb::store::ServerFeedback feedback;
  feedback.queue_length = 3;
  feedback.service_rate = 14'000.0;
  feedback.service_time = brb::sim::Duration::micros(280);
  for (brb::store::ServerId s : replicas) {
    signals.on_send(s, brb::sim::Duration::micros(280));
    signals.on_response(s, feedback, brb::sim::Duration::micros(500),
                        brb::sim::Duration::micros(280));
  }
  std::uint64_t sink = 0;
  MicroResult result = run_micro("c3_scoring", ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      sink += policy->plan(signals, replicas, brb::sim::Duration::micros(280)).primary();
    }
  });
  if (sink == 0xffff'ffff) std::abort();
  return result;
}

MicroResult bench_signal_table_update(std::uint64_t ops) {
  // One on_send + on_response round trip per op, cycling a paper-sized
  // 9-server table — the full per-request bookkeeping the unified
  // control-plane feedback path performs (in-flight counts, pending
  // cost, three EWMAs). The engine hot path pays exactly this per
  // request.
  brb::ctrl::SignalTable table;
  brb::store::ServerFeedback feedback;
  feedback.queue_length = 3;
  feedback.service_rate = 14'000.0;
  feedback.service_time = brb::sim::Duration::micros(280);
  const brb::sim::Duration cost = brb::sim::Duration::micros(280);
  const brb::sim::Duration rtt = brb::sim::Duration::micros(500);
  MicroResult result = run_micro("signal_table_update", ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      const auto server = static_cast<brb::store::ServerId>(i % 9);
      table.on_send(server, cost);
      table.on_response(server, feedback, rtt, cost);
    }
  });
  // Every send was answered, so each server's in-flight count is back
  // to zero (keeps the loop live).
  if (table.size() != 9 || table.outstanding(0) != 0) std::abort();
  return result;
}

MicroResult bench_task_gen_fill(const char* name, const char* fanout_spec,
                                std::uint64_t tasks_target) {
  // Block-filled task generation over the paper's default keys and
  // sizes: Zipf(0.9) keys over 100k, gpareto sizes, Poisson arrivals.
  // With lognormal:8.6:2.0:512 fan-out these are the exact distributions
  // the headline engine run draws from; fixed:512 keeps every task at
  // the cap, where the distinct-key dedup costs the most. Ops are whole
  // tasks (each task internally draws its gap, fan-out, and `fanout`
  // distinct keys into the block slab).
  const auto sizes = brb::workload::make_size_distribution("gpareto");
  const auto keys = brb::workload::make_key_distribution("zipf:100000:0.9");
  const auto fanout = brb::workload::make_fanout_distribution(fanout_spec);
  brb::workload::Dataset dataset(keys->num_keys(), *sizes, brb::util::Rng(11));
  brb::workload::TaskGenerator::Config cfg;
  brb::workload::TaskGenerator gen(cfg, dataset, *keys, *fanout,
                                   std::make_unique<brb::workload::PoissonArrivals>(14'000.0),
                                   brb::util::Rng(12));
  brb::workload::TaskBlock block;
  const std::uint64_t blocks = tasks_target / 256;
  std::uint64_t requests = 0;
  MicroResult result = run_micro(name, blocks * 256, [&] {
    for (std::uint64_t r = 0; r < blocks; ++r) {
      gen.fill_block(block, 256);
      requests += block.pool.size();
    }
  });
  if (requests == 0) std::abort();  // keep the loop live
  return result;
}

MicroResult bench_service_start(std::uint64_t ops) {
  // One queued-service round trip end to end: receive -> FIFO ring
  // push/pop -> service-time draw -> completion event -> pump. A closed loop of 8 outstanding requests keeps all 4
  // cores busy, so every op is one full queued-service round trip.
  brb::sim::Simulator sim;
  brb::server::BackendServer::Config cfg;
  cfg.cores = 4;
  const auto model = brb::server::SizeLinearServiceModel::calibrate(
      14'000.0, 4096.0, brb::sim::Duration::micros(5), 0.0);
  brb::server::BackendServer server(sim, cfg, model, brb::util::Rng(13));
  server.use_private_queue(brb::server::FifoDiscipline{});
  for (std::uint32_t k = 0; k < 1024; ++k) server.storage().put_meta(k, 512 + (7 * k) % 8192);
  std::uint64_t sent = 0;
  const auto send_one = [&] {
    brb::store::ReadRequest request;
    request.request_id = sent;
    request.task_id = sent;
    request.key = static_cast<brb::store::KeyId>(sent % 1024);
    request.client = 0;
    ++sent;
    server.receive(request);
  };
  server.set_response_handler([&](const brb::store::ReadResponse&) {
    if (sent < ops) send_one();
  });
  MicroResult result = run_micro("service_start", ops, [&] {
    sim.schedule_at(brb::sim::Time::zero(), [&] {
      for (int i = 0; i < 8; ++i) send_one();
    });
    sim.run();
  });
  if (server.stats().served != ops) std::abort();
  return result;
}

MicroResult bench_ring_partitioner(std::uint64_t ops) {
  brb::store::RingPartitioner partitioner(9, 3);
  brb::util::Rng rng(6);
  std::uint64_t sink = 0;
  MicroResult result = run_micro("ring_partitioner_lookup", ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      sink += partitioner.replicas_for_key(static_cast<brb::store::KeyId>(rng.next_u64())).front();
    }
  });
  if (sink == 0xffff'ffff) std::abort();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const brb::util::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const std::uint64_t rounds = quick ? 200 : 2'000;
  const std::uint64_t ops = quick ? 200'000 : 2'000'000;

  std::vector<MicroResult> micro;
  micro.push_back(bench_event_queue_push_pop(rounds));
  micro.push_back(bench_event_queue_cancel(rounds));
  micro.push_back(bench_wheel_short_delta_push_pop(rounds));
  micro.push_back(bench_wheel_cascade(rounds));
  micro.push_back(bench_same_timestamp_burst(rounds));
  micro.push_back(bench_simulator_self_scheduling(quick ? 20 : 200));
  micro.push_back(bench_simulator_chains(quick ? 200'000 : 2'000'000));
  micro.push_back(bench_priority_discipline(rounds));
  micro.push_back(bench_c3_scoring(ops));
  micro.push_back(bench_signal_table_update(ops));
  micro.push_back(bench_ring_partitioner(ops));
  micro.push_back(bench_task_gen_fill("task_gen_fill", "lognormal:8.6:2.0:512",
                                      quick ? 25'600 : 256'000));
  micro.push_back(bench_task_gen_fill("task_gen_fill_fanout512", "fixed:512",
                                      quick ? 512 : 5'120));
  micro.push_back(bench_service_start(ops / 2));

  brb::stats::Table table({"benchmark", "ops/sec"});
  for (const MicroResult& m : micro) {
    table.add_row({m.name, brb::stats::fmt_double(m.ops_per_sec, 0)});
  }
  table.print(std::cout);
  return 0;
}
