#include "lb/server.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ftl::lb {
namespace {

/// Runs one step of `server`; the served requests in service order.
std::vector<Request> serve(ServerArray& a, ServicePolicy policy,
                           std::size_t server = 0) {
  Request out[2];
  const std::size_t n = a.step(server, policy, out);
  return std::vector<Request>(out, out + n);
}

/// Queues a request from `balancer` at server 0.
void enqueue(ServerArray& a, TaskType t, std::uint32_t balancer = 0) {
  a.enqueue(0, t, balancer, 0);
}

TEST(Server, EmptyServesNothing) {
  ServerArray s(1);
  EXPECT_TRUE(serve(s, ServicePolicy::kPaperCFirst).empty());
  EXPECT_EQ(s.queue_length(0), 0u);
}

TEST(Server, QueuedOfCounts) {
  ServerArray s(1);
  enqueue(s, TaskType::kC);
  enqueue(s, TaskType::kE);
  enqueue(s, TaskType::kC);
  EXPECT_EQ(s.queued_of(0, TaskType::kC), 2u);
  EXPECT_EQ(s.queued_of(0, TaskType::kE), 1u);
  EXPECT_EQ(s.queue_length(0), 3u);
}

TEST(PaperCFirst, ServesTwoCsTogether) {
  ServerArray s(1);
  enqueue(s, TaskType::kC, 1);
  enqueue(s, TaskType::kC, 2);
  enqueue(s, TaskType::kC, 3);
  const auto served = serve(s, ServicePolicy::kPaperCFirst);
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0].balancer, 1u);
  EXPECT_EQ(served[1].balancer, 2u);
  EXPECT_EQ(s.queue_length(0), 1u);
}

TEST(PaperCFirst, SingleCServedAlone) {
  ServerArray s(1);
  enqueue(s, TaskType::kC);
  const auto served = serve(s, ServicePolicy::kPaperCFirst);
  EXPECT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].type, TaskType::kC);
}

TEST(PaperCFirst, CPairSkipsInterveningE) {
  // C requests pair up even across an E in between; the E waits.
  ServerArray s(1);
  enqueue(s, TaskType::kC, 1);
  enqueue(s, TaskType::kE, 2);
  enqueue(s, TaskType::kC, 3);
  const auto served = serve(s, ServicePolicy::kPaperCFirst);
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0].balancer, 1u);
  EXPECT_EQ(served[1].balancer, 3u);
  EXPECT_EQ(s.queued_of(0, TaskType::kE), 1u);
}

TEST(PaperCFirst, EServedOnlyWhenNoC) {
  ServerArray s(1);
  enqueue(s, TaskType::kE, 1);
  enqueue(s, TaskType::kE, 2);
  const auto served = serve(s, ServicePolicy::kPaperCFirst);
  ASSERT_EQ(served.size(), 1u);  // E is exclusive: one per step
  EXPECT_EQ(served[0].balancer, 1u);
  EXPECT_EQ(s.queue_length(0), 1u);
}

TEST(PaperCFirst, CPriorityStarvesE) {
  ServerArray s(1);
  enqueue(s, TaskType::kE, 9);
  enqueue(s, TaskType::kC, 1);
  const auto served = serve(s, ServicePolicy::kPaperCFirst);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].type, TaskType::kC);
}

TEST(FifoPair, HeadEBlocksCs) {
  ServerArray s(1);
  enqueue(s, TaskType::kE, 1);
  enqueue(s, TaskType::kC, 2);
  enqueue(s, TaskType::kC, 3);
  const auto served = serve(s, ServicePolicy::kFifoPair);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].balancer, 1u);
}

TEST(FifoPair, HeadCPairsWithLaterC) {
  ServerArray s(1);
  enqueue(s, TaskType::kC, 1);
  enqueue(s, TaskType::kE, 2);
  enqueue(s, TaskType::kC, 3);
  const auto served = serve(s, ServicePolicy::kFifoPair);
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0].balancer, 1u);
  EXPECT_EQ(served[1].balancer, 3u);
}

TEST(EFirst, PrefersE) {
  ServerArray s(1);
  enqueue(s, TaskType::kC, 1);
  enqueue(s, TaskType::kE, 2);
  const auto served = serve(s, ServicePolicy::kEFirst);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].type, TaskType::kE);
}

TEST(EFirst, PairsCsWhenNoE) {
  ServerArray s(1);
  enqueue(s, TaskType::kC, 1);
  enqueue(s, TaskType::kC, 2);
  EXPECT_EQ(serve(s, ServicePolicy::kEFirst).size(), 2u);
}

TEST(Server, DrainsCompletely) {
  for (auto policy : {ServicePolicy::kPaperCFirst, ServicePolicy::kFifoPair,
                      ServicePolicy::kEFirst}) {
    ServerArray s(1);
    for (int i = 0; i < 10; ++i) {
      enqueue(s, i % 3 == 0 ? TaskType::kE : TaskType::kC);
    }
    int steps = 0;
    while (s.queue_length(0) > 0 && steps < 100) {
      ASSERT_FALSE(serve(s, policy).empty()) << to_string(policy);
      ++steps;
    }
    EXPECT_EQ(s.queue_length(0), 0u) << to_string(policy);
    EXPECT_LE(steps, 10);
  }
}

TEST(Server, ServersQueueIndependently) {
  ServerArray s(3);
  s.enqueue(1, TaskType::kC, 7, 4);
  s.enqueue(1, TaskType::kE, 8, 5);
  s.enqueue(2, TaskType::kE, 9, 6);
  EXPECT_EQ(s.queue_length(0), 0u);
  EXPECT_TRUE(serve(s, ServicePolicy::kPaperCFirst, 0).empty());
  const auto served = serve(s, ServicePolicy::kPaperCFirst, 1);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].balancer, 7u);
  EXPECT_EQ(served[0].arrival_step, 4);
  EXPECT_EQ(s.queued_of(1, TaskType::kE), 1u);
  EXPECT_EQ(s.queue_length(2), 1u);
}

TEST(Server, ToStringNames) {
  EXPECT_STREQ(to_string(ServicePolicy::kPaperCFirst), "paper-c-first");
  EXPECT_STREQ(to_string(ServicePolicy::kFifoPair), "fifo-pair");
  EXPECT_STREQ(to_string(ServicePolicy::kEFirst), "e-first");
}

}  // namespace
}  // namespace ftl::lb
