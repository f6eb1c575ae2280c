// Tests for the gate latch state machine: shared/exclusive acquisition,
// fence validation, combining queue protocol, rebalancer ownership
// transfer and invalidation.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "concurrent/gate.h"

namespace cpma {
namespace {

GateOp Ins(Key k) { return GateOp{GateOp::Type::kInsert, k, k}; }

TEST(Gate, WriterAcquiresFreeGate) {
  Gate g(0, 0, 8);
  EXPECT_EQ(g.WriterAccess(Ins(5), /*allow_queue=*/true), GateAccess::kOwner);
  EXPECT_TRUE(g.WriterRelease());
}

TEST(Gate, FenceRejectionRoutesToNeighbours) {
  Gate g(1, 8, 16);
  g.SetFences(100, 200);
  EXPECT_EQ(g.WriterAccess(Ins(50), true), GateAccess::kTooLow);
  EXPECT_EQ(g.WriterAccess(Ins(250), true), GateAccess::kTooHigh);
  EXPECT_EQ(g.WriterAccess(Ins(100), true), GateAccess::kOwner);
  g.WriterRelease();
  Key low = 150;
  EXPECT_EQ(g.ReaderAccess(&low), GateAccess::kOwner);
  g.ReaderRelease();
  Key too_high = 201;
  EXPECT_EQ(g.ReaderAccess(&too_high), GateAccess::kTooHigh);
}

TEST(Gate, SecondWriterQueuesOntoActiveWriter) {
  Gate g(0, 0, 8);
  ASSERT_EQ(g.WriterAccess(Ins(1), true), GateAccess::kOwner);
  EXPECT_EQ(g.WriterAccess(Ins(2), true), GateAccess::kQueued);
  EXPECT_EQ(g.WriterAccess(Ins(3), true), GateAccess::kQueued);
  GateOp op;
  ASSERT_TRUE(g.WriterPopOrRelease(&op));
  EXPECT_EQ(op.key, 2u);
  ASSERT_TRUE(g.WriterPopOrRelease(&op));
  EXPECT_EQ(op.key, 3u);
  EXPECT_FALSE(g.WriterPopOrRelease(&op));  // empty => released
  // Gate is free again; a new writer owns it.
  EXPECT_EQ(g.WriterAccess(Ins(4), true), GateAccess::kOwner);
  g.WriterRelease();
}

TEST(Gate, SyncModeNeverQueues) {
  Gate g(0, 0, 8);
  ASSERT_EQ(g.WriterAccess(Ins(1), /*allow_queue=*/false), GateAccess::kOwner);
  std::atomic<bool> second_acquired{false};
  std::thread t([&] {
    EXPECT_EQ(g.WriterAccess(Ins(2), false), GateAccess::kOwner);
    second_acquired.store(true);
    g.WriterRelease();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_acquired.load()) << "sync writer must block, not queue";
  g.WriterRelease();
  t.join();
  EXPECT_TRUE(second_acquired.load());
}

TEST(Gate, ReadersShareWritersExclude) {
  Gate g(0, 0, 8);
  Key k = 1;
  ASSERT_EQ(g.ReaderAccess(&k), GateAccess::kOwner);
  ASSERT_EQ(g.ReaderAccess(&k), GateAccess::kOwner);  // second reader ok
  std::atomic<bool> writer_done{false};
  std::thread w([&] {
    EXPECT_EQ(g.WriterAccess(Ins(1), true), GateAccess::kOwner);
    writer_done.store(true);
    g.WriterRelease();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_done.load());
  g.ReaderRelease();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_done.load()) << "one reader still inside";
  g.ReaderRelease();
  w.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(Gate, TransferAndMasterTakeover) {
  Gate g(0, 0, 8);
  ASSERT_EQ(g.WriterAccess(Ins(1), true), GateAccess::kOwner);
  g.TransferToRebalancer();
  // Master can acquire the transferred gate without blocking.
  g.MasterAcquire();
  g.MasterRelease();
  // Writer re-acquires once the master released.
  EXPECT_TRUE(g.WriterReacquireAfterRebal());
  g.WriterRelease();
}

TEST(Gate, QueueAcceptsOpsWhileTransferred) {
  Gate g(0, 0, 8);
  ASSERT_EQ(g.WriterAccess(Ins(1), true), GateAccess::kOwner);
  g.TransferToRebalancer();
  // writer_active is still set: other writers keep queueing.
  EXPECT_EQ(g.WriterAccess(Ins(7), true), GateAccess::kQueued);
  g.MasterAcquire();
  g.MasterRelease();
  ASSERT_TRUE(g.WriterReacquireAfterRebal());
  GateOp op;
  ASSERT_TRUE(g.WriterPopOrRelease(&op));
  EXPECT_EQ(op.key, 7u);
  EXPECT_FALSE(g.WriterPopOrRelease(&op));
}

TEST(Gate, DetachKeepsQueueAccumulating) {
  Gate g(0, 0, 8);
  ASSERT_EQ(g.WriterAccess(Ins(1), true), GateAccess::kOwner);
  g.OwnerPushFront({Ins(1)});
  g.WriterDetachKeepQueue();
  // Gate is FREE but the combiner slot is taken: writers queue, readers
  // pass.
  EXPECT_EQ(g.WriterAccess(Ins(2), true), GateAccess::kQueued);
  Key k = 1;
  EXPECT_EQ(g.ReaderAccess(&k), GateAccess::kOwner);
  g.ReaderRelease();
  // Master consumes the detached queue.
  g.MasterAcquire();
  g.MasterClearWriterActive();
  auto q = g.MasterTakeQueue();
  EXPECT_EQ(q.size(), 2u);
  g.MasterRelease();
  // Next writer owns normally again.
  EXPECT_EQ(g.WriterAccess(Ins(3), true), GateAccess::kOwner);
  g.WriterRelease();
}

TEST(Gate, InvalidationWakesAndRejects) {
  Gate g(0, 0, 8);
  g.MasterAcquire();
  std::atomic<int> rejections{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      Key k = 1;
      if (g.ReaderAccess(&k) == GateAccess::kInvalidated) {
        rejections.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  g.InvalidateAndRelease();
  for (auto& t : threads) t.join();
  EXPECT_EQ(rejections.load(), 4);
  EXPECT_EQ(g.WriterAccess(Ins(1), true), GateAccess::kInvalidated);
}

TEST(Gate, WriterReacquireFailsAfterInvalidation) {
  Gate g(0, 0, 8);
  ASSERT_EQ(g.WriterAccess(Ins(1), true), GateAccess::kOwner);
  g.TransferToRebalancer();
  std::thread master([&] {
    g.MasterAcquire();
    std::deque<GateOp> q = g.MasterTakeQueue();
    g.InvalidateAndRelease();
  });
  EXPECT_FALSE(g.WriterReacquireAfterRebal());
  master.join();
}

TEST(Gate, ConcurrentQueueAndDrainLosesNothing) {
  Gate g(0, 0, 8);
  constexpr int kProducers = 6;
  constexpr int kOpsEach = 500;
  std::atomic<int> drained{0};
  std::atomic<int> owned_applied{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kOpsEach; ++i) {
        GateOp op = Ins(static_cast<Key>(p * kOpsEach + i));
        GateAccess a = g.WriterAccess(op, true);
        if (a == GateAccess::kOwner) {
          owned_applied.fetch_add(1);  // own op applied directly
          GateOp qop;
          while (g.WriterPopOrRelease(&qop)) drained.fetch_add(1);
        } else {
          ASSERT_EQ(a, GateAccess::kQueued);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(owned_applied.load() + drained.load(), kProducers * kOpsEach);
}

}  // namespace
}  // namespace cpma
