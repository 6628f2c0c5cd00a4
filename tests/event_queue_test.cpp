#include "src/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hcrl::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push(5.0, EventType::kJobFinish, 1);
  q.push(1.0, EventType::kJobArrival, 0);
  q.push(3.0, EventType::kWakeComplete, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 5.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  q.push(2.0, EventType::kJobArrival, 0, 100);
  q.push(2.0, EventType::kJobArrival, 0, 200);
  q.push(2.0, EventType::kJobArrival, 0, 300);
  EXPECT_EQ(q.pop().job, 100);
  EXPECT_EQ(q.pop().job, 200);
  EXPECT_EQ(q.pop().job, 300);
}

TEST(EventQueue, CarriesPayload) {
  EventQueue q;
  q.push(1.0, EventType::kIdleTimeout, 7, 0, 42);
  const Event e = q.pop();
  EXPECT_EQ(e.type, EventType::kIdleTimeout);
  EXPECT_EQ(e.server, 7u);
  EXPECT_EQ(e.generation, 42u);
}

TEST(EventQueue, TopDoesNotPop) {
  EventQueue q;
  q.push(1.0, EventType::kJobArrival);
  EXPECT_DOUBLE_EQ(q.top().time, 1.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  q.push(10.0, EventType::kJobFinish, 0, 1);
  q.push(4.0, EventType::kJobArrival, 0, 2);
  EXPECT_EQ(q.pop().job, 2);
  q.push(6.0, EventType::kJobArrival, 0, 3);
  q.push(12.0, EventType::kSleepComplete, 0, 4);
  EXPECT_EQ(q.pop().job, 3);
  EXPECT_EQ(q.pop().job, 1);
  EXPECT_EQ(q.pop().job, 4);
}

TEST(EventQueue, EmptyTopAndPopThrow) {
  EventQueue q;
  EXPECT_THROW(q.top(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
  q.push(1.0, EventType::kJobArrival);
  q.pop();
  EXPECT_THROW(q.top(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
}

}  // namespace
}  // namespace hcrl::sim
