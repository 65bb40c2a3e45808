#include "core/wait_queue.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bsld::core {
namespace {

TEST(WaitQueueTest, FcfsOrder) {
  WaitQueue queue;
  queue.push(3, 1);
  queue.push(1, 1);
  queue.push(2, 1);
  EXPECT_EQ(queue.head(), 3);
  EXPECT_EQ(queue.pop_head(), 3);
  EXPECT_EQ(queue.pop_head(), 1);
  EXPECT_EQ(queue.pop_head(), 2);
  EXPECT_TRUE(queue.empty());
}

TEST(WaitQueueTest, RemoveMiddlePreservesOrder) {
  WaitQueue queue;
  for (JobId id = 1; id <= 5; ++id) queue.push(id, 1);
  queue.remove(2);
  queue.remove_at(2);  // job 4
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_FALSE(queue.contains(2));
  EXPECT_FALSE(queue.contains(4));
  std::vector<JobId> order;
  for (const WaitQueue::Entry& entry : queue) order.push_back(entry.id);
  EXPECT_EQ(order, (std::vector<JobId>{1, 3, 5}));
}

TEST(WaitQueueTest, DuplicatePushRejected) {
  WaitQueue queue;
  queue.push(1, 1);
  EXPECT_THROW(queue.push(1, 1), Error);
}

TEST(WaitQueueTest, EmptyAccessRejected) {
  WaitQueue queue;
  EXPECT_THROW((void)queue.head(), Error);
  EXPECT_THROW((void)queue.pop_head(), Error);
  EXPECT_THROW(queue.remove(1), Error);
  EXPECT_THROW(queue.remove_at(0), Error);
}

TEST(WaitQueueTest, ContainsAndSize) {
  WaitQueue queue;
  EXPECT_FALSE(queue.contains(5));
  queue.push(5, 1);
  EXPECT_TRUE(queue.contains(5));
  EXPECT_EQ(queue.size(), 1u);
}

TEST(WaitQueueTest, EntriesCarrySizeAndClosedMark) {
  WaitQueue queue;
  queue.push(7, 3);
  queue.push(8, 5);
  EXPECT_EQ(queue[1].size, 5);
  EXPECT_FALSE(queue[1].closed);
  queue[1].closed = true;
  queue.pop_head();
  EXPECT_EQ(queue[0].id, 8);
  EXPECT_TRUE(queue[0].closed);
  queue.remove_at(0);
  queue.push(8, 5);  // the mark leaves with the entry
  EXPECT_FALSE(queue[0].closed);
}

TEST(WaitQueueTest, ReuseAfterRemoval) {
  WaitQueue queue;
  queue.push(1, 1);
  queue.remove(1);
  queue.push(1, 1);  // a job id may re-enter after leaving
  EXPECT_EQ(queue.head(), 1);
}

}  // namespace
}  // namespace bsld::core
