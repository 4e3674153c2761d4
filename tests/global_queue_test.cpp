// Tests for the ideal global-queue model (the paper's "model"
// realization) and the Figure 1 executable example.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "core/fig1.hpp"
#include "server/global_queue.hpp"
#include "server/backend_server.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "util/rng.hpp"

namespace brb::core {
namespace {

using server::GlobalQueueModel;
using sim::Duration;
using sim::Time;

struct ModelFixture {
  sim::Simulator simulator;
  store::RingPartitioner partitioner{3, 2};  // groups {0,1},{1,2},{2,0}
  server::SizeLinearServiceModel model{Duration::micros(100), 0.0};
  std::vector<std::unique_ptr<server::BackendServer>> servers;
  std::unique_ptr<GlobalQueueModel> queue;
  std::vector<std::pair<store::ServerId, store::RequestId>> completions;

  explicit ModelFixture(std::string_view discipline = "priority") {
    queue = std::make_unique<GlobalQueueModel>(partitioner, discipline);
    std::vector<server::BackendServer*> raw;
    for (store::ServerId s = 0; s < 3; ++s) {
      server::BackendServer::Config config;
      config.id = s;
      config.cores = 1;
      servers.push_back(
          std::make_unique<server::BackendServer>(simulator, config, model, util::Rng(s + 1)));
      servers.back()->set_response_handler([this, s](const store::ReadResponse& response) {
        completions.emplace_back(s, response.request_id);
      });
      raw.push_back(servers.back().get());
    }
    queue->attach_servers(std::move(raw));
  }

  server::QueuedRead read(store::RequestId id, store::Priority priority) {
    server::QueuedRead r;
    r.request.request_id = id;
    r.request.priority = priority;
    r.request.key = 42;
    r.enqueued_at = simulator.now();
    return r;
  }
};

TEST(GlobalQueueModel, IdleServerPullsImmediately) {
  ModelFixture f;
  f.simulator.schedule_at(Time::zero(), [&] { f.queue->submit(f.read(1, 0.0), 0); });
  f.simulator.run();
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.simulator.now(), Time::micros(100));
}

TEST(GlobalQueueModel, OnlyGroupMembersServe) {
  ModelFixture f;
  // Group 1 = servers {1, 2}; server 0 must never serve it.
  f.simulator.schedule_at(Time::zero(), [&] {
    for (store::RequestId id = 0; id < 20; ++id) f.queue->submit(f.read(id, 0.0), 1);
  });
  f.simulator.run();
  ASSERT_EQ(f.completions.size(), 20u);
  for (const auto& [server, id] : f.completions) {
    EXPECT_NE(server, 0u) << "server 0 served a group-1 request";
  }
}

TEST(GlobalQueueModel, PriorityOrderAcrossGroups) {
  ModelFixture f;
  // Saturate server 0's two groups (0 and 2) while it is busy, then
  // check it pulls strictly by priority across both groups.
  f.simulator.schedule_at(Time::zero(), [&] {
    f.queue->submit(f.read(100, 0.0), 0);  // occupies server 0
    f.queue->submit(f.read(101, 0.0), 1);  // occupies server 1
    f.queue->submit(f.read(102, 0.0), 1);  // occupies server 2 (group 1 = {1,2})
    f.queue->submit(f.read(1, 5.0), 0);
    f.queue->submit(f.read(2, 1.0), 2);
    f.queue->submit(f.read(3, 3.0), 0);
  });
  f.simulator.run();
  ASSERT_EQ(f.completions.size(), 6u);
  // Find the order in which the contended requests finished.
  std::vector<store::RequestId> contended;
  for (const auto& [server, id] : f.completions) {
    if (id < 100) contended.push_back(id);
  }
  EXPECT_EQ(contended, (std::vector<store::RequestId>{2, 3, 1}));
}

TEST(GlobalQueueModel, FifoTieBreakBySubmission) {
  ModelFixture f;
  f.simulator.schedule_at(Time::zero(), [&] {
    f.queue->submit(f.read(100, 0.0), 0);  // occupy server 0
    // Keep servers 1 and 2 on group-1 filler for three service slots so
    // only server 0 pulls the contended requests.
    for (store::RequestId id = 101; id <= 106; ++id) f.queue->submit(f.read(id, 0.0), 1);
    // Same priority, groups 0 and 2 (both servable by server 0):
    // submission order must decide.
    f.queue->submit(f.read(1, 7.0), 0);
    f.queue->submit(f.read(2, 7.0), 2);
    f.queue->submit(f.read(3, 7.0), 0);
  });
  f.simulator.run();
  std::vector<store::RequestId> contended;
  for (const auto& [server, id] : f.completions) {
    if (id < 100) contended.push_back(id);
  }
  EXPECT_EQ(contended, (std::vector<store::RequestId>{1, 2, 3}));
}

TEST(GlobalQueueModel, FifoGroupsAndPinnedServeInSubmissionOrder) {
  // FIFO queues report priority 0 at their heads, so a server pulling
  // across its two group queues and its pinned queue must follow the
  // global submission order whatever the requests' priorities.
  ModelFixture f("fifo");
  f.simulator.schedule_at(Time::zero(), [&] {
    f.queue->submit(f.read(100, 0.0), 0);  // occupy server 0
    // Keep servers 1 and 2 on group-1 filler for five service slots so
    // only server 0 pulls the contended requests.
    for (store::RequestId id = 101; id <= 110; ++id) f.queue->submit(f.read(id, 0.0), 1);
    f.queue->submit(f.read(1, 9.0), 0);
    f.queue->submit_pinned(f.read(2, 1.0), 0);
    f.queue->submit(f.read(3, 5.0), 2);
    f.queue->submit_pinned(f.read(4, 0.0), 0);
    // Server 0 sees group 0, group 2 and its own pinned queue.
    EXPECT_EQ(f.queue->backlog(0), 4u);
  });
  f.simulator.run();
  std::vector<store::RequestId> contended;
  for (const auto& [server, id] : f.completions) {
    if (id < 100) {
      contended.push_back(id);
      EXPECT_EQ(server, 0u) << "request " << id;
    }
  }
  EXPECT_EQ(contended, (std::vector<store::RequestId>{1, 2, 3, 4}));
  EXPECT_EQ(f.queue->total_backlog(), 0u);
}

TEST(GlobalQueueModel, BacklogCountsServableWork) {
  ModelFixture f;
  f.simulator.schedule_at(Time::zero(), [&] {
    f.queue->submit(f.read(100, 0.0), 0);
    f.queue->submit(f.read(101, 0.0), 1);
    f.queue->submit(f.read(102, 0.0), 1);
    f.queue->submit(f.read(1, 1.0), 0);
    f.queue->submit(f.read(2, 1.0), 1);
    // Server 0 belongs to groups 0 and 2: sees only the group-0 item.
    EXPECT_EQ(f.queue->backlog(0), 1u);
    // Server 1 belongs to groups 0 and 1: sees both.
    EXPECT_EQ(f.queue->backlog(1), 2u);
    EXPECT_EQ(f.queue->total_backlog(), 2u);
  });
  f.simulator.run();
  EXPECT_EQ(f.queue->total_backlog(), 0u);
}

TEST(GlobalQueueModel, RejectsBadGroupAndServer) {
  ModelFixture f;
  EXPECT_THROW(f.queue->submit(f.read(1, 0.0), 99), std::out_of_range);
  EXPECT_FALSE(f.queue->next_for(99).has_value());
  EXPECT_EQ(f.queue->backlog(99), 0u);
}

// ---------------------------------------------------------------------------
// Figure 1 (executable)

TEST(Fig1, ObliviousScheduleDelaysT2) {
  const Fig1Result result = run_fig1("fifo");
  EXPECT_NEAR(result.t2_completion_units, 2.0, 0.2);
  EXPECT_NEAR(result.t1_completion_units, 2.0, 0.2);
}

TEST(Fig1, EqualMaxAchievesOptimalSchedule) {
  const Fig1Result result = run_fig1("equalmax");
  EXPECT_NEAR(result.t2_completion_units, 1.0, 0.2);
  EXPECT_NEAR(result.t1_completion_units, 2.0, 0.2);
}

TEST(Fig1, UnifIncrAchievesOptimalSchedule) {
  const Fig1Result result = run_fig1("unifincr");
  EXPECT_NEAR(result.t2_completion_units, 1.0, 0.2);
  EXPECT_NEAR(result.t1_completion_units, 2.0, 0.2);
}

TEST(Fig1, TaskAwareNeverDelaysT1) {
  const Fig1Result fifo = run_fig1("fifo");
  const Fig1Result equalmax = run_fig1("equalmax");
  // The optimal schedule improves T2 by a full unit...
  EXPECT_LT(equalmax.t2_completion_units, fifo.t2_completion_units - 0.5);
  // ...while T1 is unchanged (its bottleneck is S2 either way).
  EXPECT_NEAR(equalmax.t1_completion_units, fifo.t1_completion_units, 0.25);
}

TEST(Fig1, ScheduleListsAllFiveRequests) {
  const Fig1Result result = run_fig1("equalmax");
  EXPECT_EQ(result.schedule.size(), 5u);
}

TEST(Fig1, EOnS1BeforeAUnderTaskAwareness) {
  const Fig1Result result = run_fig1("unifincr");
  double e_end = 0.0;
  double a_end = 0.0;
  for (const auto& entry : result.schedule) {
    if (entry.key == "E") e_end = entry.end_units;
    if (entry.key == "A") a_end = entry.end_units;
  }
  EXPECT_LT(e_end, a_end);
}

}  // namespace
}  // namespace brb::core
