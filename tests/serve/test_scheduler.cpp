#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace tcgpu::serve {
namespace {

TenantPolicy shedding(std::size_t limit, double weight = 1.0) {
  TenantPolicy p;
  p.weight = weight;
  p.queue_limit = limit;
  p.block_when_full = false;
  return p;
}

/// Pushes `n` items for `tenant`, values tenant:index.
void push_n(Scheduler<std::string>& s, const std::string& tenant, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(s.push(tenant, 0, tenant + ":" + std::to_string(i)),
              AdmitResult::kAdmitted);
  }
}

TEST(SchedulerWfq, SaturatedSharesFollowWeights) {
  Scheduler<std::string> s;
  s.set_policy("heavy", shedding(0, 3.0));
  s.set_policy("light", shedding(0, 1.0));
  // Backlog both tenants fully before any dispatch: the pop order is then a
  // pure function of the tags, independent of arrival interleaving.
  push_n(s, "light", 12);
  push_n(s, "heavy", 12);

  std::map<std::string, int> share;
  for (int i = 0; i < 8; ++i) {
    auto v = s.pop();
    ASSERT_TRUE(v.has_value());
    share[v->substr(0, v->find(':'))]++;
  }
  // First 8 dispatch slots split 3:1 — tags advance by 1/3 vs 1.
  EXPECT_EQ(share["heavy"], 6);
  EXPECT_EQ(share["light"], 2);
}

TEST(SchedulerWfq, DispatchOrderIsDeterministic) {
  // Same admission sequence twice -> identical dispatch sequence.
  std::vector<std::string> first, second;
  for (std::vector<std::string>* out : {&first, &second}) {
    Scheduler<std::string> s;
    s.set_policy("a", shedding(0, 2.0));
    s.set_policy("b", shedding(0, 1.0));
    for (int i = 0; i < 6; ++i) {
      std::string payload = "x";
      payload += std::to_string(i);
      ASSERT_EQ(s.push(i % 2 ? "a" : "b", 0, std::move(payload)),
                AdmitResult::kAdmitted);
    }
    while (out->size() < 6) out->push_back(*s.pop());
  }
  EXPECT_EQ(first, second);
}

TEST(SchedulerWfq, IdleTenantBanksNoCredit) {
  Scheduler<std::string> s;
  s.set_policy("busy", shedding(0));
  s.set_policy("late", shedding(0));
  // "busy" runs alone for a while, raising the virtual-time floor.
  push_n(s, "busy", 8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(s.pop().has_value());
  // A late joiner restarts at the floor: with equal weights the next window
  // alternates instead of draining the idle tenant's "saved up" share.
  push_n(s, "busy", 4);
  push_n(s, "late", 4);
  std::map<std::string, int> first_four;
  for (int i = 0; i < 4; ++i) {
    first_four[s.pop()->substr(0, 4)]++;
  }
  EXPECT_EQ(first_four["busy"], 2);
  EXPECT_EQ(first_four["late"], 2);
}

TEST(SchedulerEdf, DeadlineItemsJumpBulkWork) {
  Scheduler<std::string> s;
  s.set_policy("bulk", shedding(0));
  s.set_policy("slo", shedding(0));
  push_n(s, "bulk", 5);
  ASSERT_EQ(s.push("slo", 200, "slo:late"), AdmitResult::kAdmitted);
  ASSERT_EQ(s.push("slo", 100, "slo:urgent"), AdmitResult::kAdmitted);
  // EDF dispatches the deadline heads before any bulk item. Heads pop in
  // per-tenant FIFO order, so "late" (the queue head) goes first, then
  // "urgent" — after which bulk resumes.
  EXPECT_EQ(*s.pop(), "slo:late");
  EXPECT_EQ(*s.pop(), "slo:urgent");
  EXPECT_EQ(s.pop()->substr(0, 4), "bulk");
}

TEST(SchedulerEdf, EarliestDeadlineAcrossTenantsWins) {
  Scheduler<std::string> s;
  ASSERT_EQ(s.push("a", 300, "a:300"), AdmitResult::kAdmitted);
  ASSERT_EQ(s.push("b", 100, "b:100"), AdmitResult::kAdmitted);
  ASSERT_EQ(s.push("c", 200, "c:200"), AdmitResult::kAdmitted);
  EXPECT_EQ(*s.pop(), "b:100");
  EXPECT_EQ(*s.pop(), "c:200");
  EXPECT_EQ(*s.pop(), "a:300");
}

TEST(SchedulerBackpressure, ShedIsPerTenant) {
  Scheduler<std::string> s;
  s.set_policy("bounded", shedding(2));
  s.set_policy("other", shedding(2));
  ASSERT_EQ(s.push("bounded", 0, "1"), AdmitResult::kAdmitted);
  ASSERT_EQ(s.push("bounded", 0, "2"), AdmitResult::kAdmitted);
  // The bound sheds only this tenant's overflow...
  EXPECT_EQ(s.push("bounded", 0, "3"), AdmitResult::kShed);
  // ...while another tenant still admits.
  EXPECT_EQ(s.push("other", 0, "x"), AdmitResult::kAdmitted);
  EXPECT_EQ(s.size(), 3u);
}

TEST(SchedulerBackpressure, BlockingPushWaitsForPop) {
  Scheduler<std::string> s;
  TenantPolicy blocking;
  blocking.queue_limit = 1;
  blocking.block_when_full = true;
  s.set_policy("t", blocking);
  ASSERT_EQ(s.push("t", 0, "first"), AdmitResult::kAdmitted);

  std::thread pusher([&] {
    EXPECT_EQ(s.push("t", 0, "second"), AdmitResult::kAdmitted);
  });
  // The blocked pusher completes once a slot frees.
  EXPECT_EQ(*s.pop(), "first");
  pusher.join();
  EXPECT_EQ(*s.pop(), "second");
}

TEST(SchedulerShutdown, CloseDrainsThenSignalsEnd) {
  Scheduler<std::string> s;
  push_n(s, "t", 3);
  s.close();
  EXPECT_EQ(s.push("t", 0, "late"), AdmitResult::kClosed);
  // Queued work stays poppable after close, in FIFO order for one tenant;
  // then pop() reports drained.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(*s.pop(), "t:" + std::to_string(i));
  EXPECT_FALSE(s.pop().has_value());
}

TEST(SchedulerShutdown, CloseWakesBlockedConsumer) {
  Scheduler<int> s;
  std::thread consumer([&] { EXPECT_EQ(s.pop(), std::nullopt); });
  s.close();
  consumer.join();
}

TEST(SchedulerBatching, TakeMatchingExtractsBatchInOrder) {
  Scheduler<std::string> s;
  for (const char* v : {"a1", "b1", "a2", "a3", "b2"}) {
    ASSERT_EQ(s.push("t", 0, std::string(v)), AdmitResult::kAdmitted);
  }
  EXPECT_EQ(*s.pop(), "a1");
  auto batch = s.take_matching(
      "t", [](const std::string& v) { return v[0] == 'b'; }, /*max=*/1);
  ASSERT_EQ(batch.size(), 1u);  // capped at max, FIFO order
  EXPECT_EQ(batch[0], "b1");
  batch = s.take_matching(
      "t", [](const std::string& v) { return v[0] == 'a'; }, /*max=*/8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], "a2");
  EXPECT_EQ(batch[1], "a3");
  // Non-matching items keep their place.
  EXPECT_EQ(*s.pop(), "b2");
  EXPECT_EQ(s.size(), 0u);
}

TEST(SchedulerBatching, TakeMatchingOnEmptyDoesNotBlock) {
  Scheduler<int> s;
  EXPECT_TRUE(s.take_matching("t", [](int) { return true; }, 4).empty());
  ASSERT_EQ(s.push("t", 0, 1), AdmitResult::kAdmitted);
  ASSERT_TRUE(s.pop().has_value());
  EXPECT_TRUE(s.take_matching("t", [](int) { return true; }, 4).empty());
}

TEST(SchedulerBatching, TakeMatchingStaysInsideTheTenant) {
  Scheduler<std::string> s;
  // Values are tenant:key. Key "x" is queued by two tenants of equal
  // weight, and "a" also has later work. Tags: a:x0=1, a:x1=2, b:x=1, a:y=3.
  ASSERT_EQ(s.push("a", 0, "a:x0"), AdmitResult::kAdmitted);
  ASSERT_EQ(s.push("a", 0, "a:x1"), AdmitResult::kAdmitted);
  ASSERT_EQ(s.push("b", 0, "b:x"), AdmitResult::kAdmitted);
  ASSERT_EQ(s.push("a", 0, "a:y"), AdmitResult::kAdmitted);
  const auto key_x = [](const std::string& v) { return v[2] == 'x'; };

  EXPECT_EQ(*s.pop(), "a:x0");  // tag tie with b:x, earlier arrival wins
  const auto batch = s.take_matching("a", key_x, /*max=*/8);
  ASSERT_EQ(batch.size(), 1u);  // b's same-key item is not taken...
  EXPECT_EQ(batch[0], "a:x1");
  // ...and keeps its WFQ turn ahead of a's later work (tag 1 < 3), even
  // though the batch advanced the virtual floor to 2.
  EXPECT_EQ(*s.pop(), "b:x");
  EXPECT_EQ(*s.pop(), "a:y");
}

TEST(SchedulerBatching, BatchedItemsAdvanceTheVirtualFloor) {
  Scheduler<std::string> s;
  // "busy" is served alone, mostly through one batch (tags 1..4).
  push_n(s, "busy", 4);
  EXPECT_EQ(*s.pop(), "busy:0");
  EXPECT_EQ(s.take_matching("busy", [](const std::string&) { return true; }, 8).size(),
            3u);
  // A late joiner gets no credit for the batched service either: with
  // equal weights the next window alternates.
  push_n(s, "busy", 2);
  push_n(s, "late", 2);
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) order.push_back(*s.pop());
  EXPECT_EQ(order, (std::vector<std::string>{"busy:0", "late:0", "busy:1", "late:1"}));
}

TEST(SchedulerBatching, TakeMatchingWakesBlockedPusher) {
  Scheduler<std::string> s;
  TenantPolicy blocking;
  blocking.queue_limit = 1;
  s.set_policy("t", blocking);
  ASSERT_EQ(s.push("t", 0, "first"), AdmitResult::kAdmitted);

  std::thread pusher([&] {
    EXPECT_EQ(s.push("t", 0, "second"), AdmitResult::kAdmitted);
  });
  // Let the pusher park on the full queue so the wake-up path runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto batch = s.take_matching(
      "t", [](const std::string& v) { return v == "first"; }, /*max=*/8);
  ASSERT_EQ(batch.size(), 1u);
  pusher.join();  // hangs if the freed slot woke no one
  EXPECT_EQ(*s.pop(), "second");
}

TEST(SchedulerPayload, MoveOnlyPayloadsWork) {
  Scheduler<std::unique_ptr<int>> s;
  ASSERT_EQ(s.push("t", 0, std::make_unique<int>(7)), AdmitResult::kAdmitted);
  ASSERT_EQ(s.push("t", 0, std::make_unique<int>(8)), AdmitResult::kAdmitted);
  auto out = s.pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 7);
  auto rest = s.take_matching(
      "t", [](const std::unique_ptr<int>& p) { return *p == 8; }, 1);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(*rest[0], 8);
}

}  // namespace
}  // namespace tcgpu::serve
