// EBR core suite (ISSUE 6): watermark triggering by count and by bytes,
// epoch-order draining of the per-thread limbo lists, pointer-stable
// slot growth past the initial capacity, slot reuse after thread exit,
// destruction with pending garbage (ASan leak coverage), and the
// parked-reader soaks that are the tentpole's acceptance evidence — a
// reader holding an EpochGuard mid-scan while writers churn must bound
// retired memory without wedging reclamation for other epochs.
//
// Dual-labeled unit+concurrent: the multi-threaded cases (registration
// storm, parked-reader soaks) re-run under TSan, where the seq_cst
// pin-publish / pass-fence protocol must keep every access ordered.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "common/epoch_gc.h"
#include "concurrent/concurrent_pma.h"
#include "ebr_wait.h"

namespace cpma {
namespace {

void CountingFree(void* p) {
  static_cast<std::atomic<int>*>(p)->fetch_add(1);
}

TEST(EpochGCCore, CountWatermarkTriggersCollection) {
  EpochGC::Options opts;
  opts.count_watermark = 4;
  opts.bytes_watermark = size_t{1} << 40;  // never by bytes
  EpochGC gc(opts);  // passive: the watermark crossing collects inline
  std::atomic<int> freed{0};
  for (int i = 0; i < 3; ++i) gc.Retire(&CountingFree, &freed, 8);
  EXPECT_EQ(freed.load(), 0) << "below watermark: nothing collected";
  EXPECT_EQ(gc.PendingGarbage(), 3u);
  gc.Retire(&CountingFree, &freed, 8);  // 4th crosses the watermark
  EXPECT_EQ(freed.load(), 4);
  EXPECT_EQ(gc.PendingGarbage(), 0u);
  const EpochGCStats s = gc.Stats();
  EXPECT_GE(s.epoch_advances, 1u);
  EXPECT_GE(s.collections, 1u);
  EXPECT_EQ(s.retired_count, 4u);
  EXPECT_EQ(s.freed_count, 4u);
}

TEST(EpochGCCore, BytesWatermarkTriggersCollection) {
  EpochGC::Options opts;
  opts.count_watermark = size_t{1} << 40;  // never by count
  opts.bytes_watermark = 1024;
  EpochGC gc(opts);
  std::atomic<int> freed{0};
  gc.Retire(&CountingFree, &freed, 100);
  EXPECT_EQ(freed.load(), 0);
  // One huge retirement (a multi-MB snapshot, say) must trip the bytes
  // watermark even though the count is tiny.
  gc.Retire(&CountingFree, &freed, 4096);
  EXPECT_EQ(freed.load(), 2);
  const EpochGCStats s = gc.Stats();
  EXPECT_EQ(s.retired_bytes, 4196u);
  EXPECT_EQ(s.freed_bytes, 4196u);
  EXPECT_GE(s.retired_bytes_hwm, 4196u);
  EXPECT_EQ(s.pending_bytes, 0u);
}

// The per-thread limbo list is epoch-sorted by construction; Collect
// drains exactly the prefix older than the min active epoch.
TEST(EpochGCCore, DrainsEpochOrderedPrefixOnly) {
  EpochGC gc;
  std::atomic<int> freed_old{0};
  std::atomic<int> freed_new{0};
  gc.Retire(&CountingFree, &freed_old, 8);  // stamped epoch E
  ASSERT_TRUE(gc.TryAdvanceEpoch());        // no readers: E -> E+1
  EpochSlot* parked = gc.RegisterThread();
  gc.Enter(parked);                         // pins E+1
  gc.Retire(&CountingFree, &freed_new, 8);  // stamped E+1, same limbo list
  gc.Collect();
  EXPECT_EQ(freed_old.load(), 1) << "pre-pin garbage must drain";
  EXPECT_EQ(freed_new.load(), 0) << "pinned-epoch garbage must not";
  EXPECT_EQ(gc.PendingGarbage(), 1u);
  gc.Exit(parked);
  gc.Collect();
  EXPECT_EQ(freed_new.load(), 1);
  gc.UnregisterThread(parked);
}

// Satellite: RegisterThread must not abort past the initial capacity —
// slot storage grows in chunks and existing EpochSlot* stay valid.
TEST(EpochGCCore, SlotStorageGrowsWithoutAborting) {
  EpochGC::Options opts;
  opts.initial_threads = 1;
  EpochGC gc(opts);
  constexpr int kSlots = 100;  // far beyond one chunk
  std::vector<EpochSlot*> slots;
  for (int i = 0; i < kSlots; ++i) slots.push_back(gc.RegisterThread());
  EXPECT_EQ(std::set<EpochSlot*>(slots.begin(), slots.end()).size(),
            static_cast<size_t>(kSlots));
  // Slots allocated before growth must still be usable (pointer-stable).
  gc.Enter(slots[0]);
  std::atomic<int> freed{0};
  gc.Retire(&CountingFree, &freed, 8);
  gc.Collect();
  EXPECT_EQ(freed.load(), 0) << "first-chunk pin must still block";
  gc.Exit(slots[0]);
  gc.Collect();
  EXPECT_EQ(freed.load(), 1);
  for (auto* s : slots) gc.UnregisterThread(s);
}

TEST(EpochGCCore, RegistrationStormUnderGrowth) {
  EpochGC::Options opts;
  opts.initial_threads = 1;
  EpochGC gc(opts);
  std::atomic<int> freed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        EpochGuard guard(gc);
        gc.Retire(&CountingFree, &freed, 16);
      }
    });
  }
  for (auto& t : threads) t.join();
  gc.Collect();
  EXPECT_EQ(freed.load(), 800);
  EXPECT_EQ(gc.PendingGarbage(), 0u);
}

TEST(EpochGCCore, SlotReusedAfterThreadExit) {
  EpochGC gc;
  EpochSlot* first = gc.RegisterThread();
  gc.UnregisterThread(first);
  EXPECT_EQ(gc.RegisterThread(), first) << "released slot must be reused";
  gc.UnregisterThread(first);

  // A real thread exiting mid-garbage: its limbo list survives slot
  // recycling and drains once the epoch passes.
  std::atomic<int> freed{0};
  std::thread([&] {
    EpochGuard guard(gc);
    gc.Retire(&CountingFree, &freed, 8);
  }).join();
  std::thread([&] { EpochGuard guard(gc); }).join();  // recycles the slot
  gc.Collect();
  EXPECT_EQ(freed.load(), 1);
}

// A thread working on several GC instances (a sharded fleet) caches one
// slot per instance and finds it without a lock. Instances die and are
// born at the same address (built in place here, so the address reuse
// is certain): the newcomer must get a fresh slot of its own, never the
// dead instance's cached one (ASan would catch a stale slot's freed
// chunk), and at thread exit only the live instances' slots go back.
TEST(EpochGCCore, LocalSlotAcrossInstances) {
  struct alignas(EpochGC) Cell {
    unsigned char bytes[sizeof(EpochGC)];
  };
  constexpr int kGcs = 4;
  std::unique_ptr<Cell[]> cells(new Cell[kGcs]);
  EpochGC* gcs[kGcs];
  for (int i = 0; i < kGcs; ++i) gcs[i] = new (&cells[i]) EpochGC();

  EpochSlot* last[kGcs] = {};
  std::thread([&] {
    for (int i = 0; i < kGcs; ++i) last[i] = gcs[i]->LocalSlot();
    EXPECT_EQ(std::set<EpochSlot*>(last, last + kGcs).size(),
              static_cast<size_t>(kGcs));
    for (int rep = 0; rep < 3; ++rep) {
      for (int i = 0; i < kGcs; ++i) EXPECT_EQ(gcs[i]->LocalSlot(), last[i]);
    }

    // Two die and two are born at their addresses.
    for (int i : {1, 3}) {
      const uint64_t old_id = gcs[i]->instance_id();
      gcs[i]->~EpochGC();
      gcs[i] = new (&cells[i]) EpochGC();
      ASSERT_NE(gcs[i]->instance_id(), old_id);
      EpochSlot* slot = gcs[i]->LocalSlot();
      EXPECT_TRUE(slot->in_use.load()) << "a fresh registration";
      // The slot belongs to the newcomer: a pin on it holds back the
      // newcomer's garbage.
      std::atomic<int> freed{0};
      gcs[i]->Enter(slot);
      gcs[i]->Retire(&CountingFree, &freed, 8);
      gcs[i]->Collect();
      EXPECT_EQ(freed.load(), 0) << "the pin must be this GC's";
      gcs[i]->Exit(slot);
      gcs[i]->Collect();
      EXPECT_EQ(freed.load(), 1);
      EXPECT_EQ(gcs[i]->LocalSlot(), slot);
      last[i] = slot;
    }
    // The survivors keep their slots through the misses' purges.
    EXPECT_EQ(gcs[0]->LocalSlot(), last[0]);
    EXPECT_EQ(gcs[2]->LocalSlot(), last[2]);

    // One more dies after the last registration, so the thread exits
    // with a dead instance still in its cache.
    gcs[0]->~EpochGC();
  }).join();

  // Thread exit released the live instances' slots; a new thread gets
  // each of them back (the first free slot of each table).
  for (int i = 1; i < kGcs; ++i) {
    EXPECT_FALSE(last[i]->in_use.load()) << "gc " << i;
  }
  std::thread([&] {
    for (int i = 1; i < kGcs; ++i) EXPECT_EQ(gcs[i]->LocalSlot(), last[i]);
  }).join();
  for (int i = 1; i < kGcs; ++i) gcs[i]->~EpochGC();
}

// ASan coverage: destruction with garbage still pending must free both
// the objects and the intrusive nodes, through every Retire overload.
TEST(EpochGCCore, DestructionWithPendingGarbage) {
  std::atomic<int> freed{0};
  {
    EpochGC gc;
    for (int i = 0; i < 10; ++i) {
      gc.Retire(new std::vector<int>(100), 400);  // template overload
      gc.Retire(&CountingFree, &freed, 8);        // raw fn overload
    }
    EXPECT_EQ(gc.PendingGarbage(), 20u);
  }
  EXPECT_EQ(freed.load(), 10);
}

// Tentpole acceptance (EpochGC level): a parked reader pins its own
// epoch only. Pre-park garbage keeps draining while it sleeps, garbage
// accumulated during the park is bounded by what writers retire, and the
// backlog drains at the first pass after the reader exits. Each step is
// one direct call on this thread, so every count below is exact.
TEST(EpochGCCore, ParkedReaderBoundsGarbageWithoutWedging) {
  EpochGC gc;
  std::atomic<int> freed_before{0};
  std::atomic<int> freed_during{0};

  gc.Retire(&CountingFree, &freed_before, 64);  // stamped E
  EpochSlot* parked = gc.RegisterThread();
  ASSERT_TRUE(gc.TryAdvanceEpoch());  // no readers: E -> E+1
  gc.Enter(parked);                   // park at E+1

  // Old garbage reclaims while the reader is parked: no wedge.
  gc.Collect();
  EXPECT_EQ(freed_before.load(), 1);

  constexpr int kChurn = 64;
  for (int i = 0; i < kChurn; ++i) gc.Retire(&CountingFree, &freed_during, 32);
  gc.Collect();
  gc.Collect();
  EXPECT_EQ(freed_during.load(), 0) << "parked pin must hold its epoch";
  const uint64_t pinned_bytes = gc.Stats().pending_bytes;
  EXPECT_LE(pinned_bytes, uint64_t{kChurn} * 32)
      << "pending bytes bounded by what writers retired";

  gc.Exit(parked);
  gc.Collect();
  EXPECT_EQ(freed_during.load(), kChurn) << "backlog drains after exit";
  EXPECT_EQ(gc.PendingGarbage(), 0u);
  gc.UnregisterThread(parked);
}

// Tentpole acceptance (ConcurrentPMA level): a Scan callback parks
// mid-scan holding the epoch guard while writers force resizes that
// retire whole snapshots. Writers must keep making progress (no
// reclamation wedge stalls them), and the retired-snapshot backlog must
// drain once the parked reader finishes.
TEST(EpochGCCore, ParkedScanUnderResizeChurnDrainsAfterRelease) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 16;
  cfg.segments_per_gate = 4;
  ConcurrentPMA pma(cfg);
  for (Key k = 0; k < 512; ++k) pma.Insert(k * 2, k);
  pma.Flush();

  std::atomic<bool> release{false};
  std::atomic<bool> parked{false};
  std::thread scanner([&] {
    pma.Scan(0, kKeyMax, [&](Key, Value) {
      parked.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return true;
    });
  });
  while (!parked.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Writers churn enough to resize (and thus retire snapshots) several
  // times while the scanner is parked inside its guard. Flush() returns
  // although the parked scanner pins garbage: reclamation is not
  // rebalancer work.
  const uint64_t resizes_before = pma.num_resizes();
  Key next = 1;
  while (pma.num_resizes() < resizes_before + 2) {
    for (int i = 0; i < 2048; ++i, next += 2) pma.Insert(next, next);
    pma.Flush();
    ASSERT_LT(next, Key{1} << 24) << "writers wedged: resizes not happening";
  }
  EXPECT_GE(pma.ebr_stats().retired_bytes, sizeof(Structure))
      << "resize must retire the old snapshot through the EBR path";

  EXPECT_GT(pma.ebr_stats().pending_count, 0u)
      << "the parked scanner must pin what the resizes retired";

  release.store(true);
  scanner.join();
  // Nothing here collects: the master's passes must free the backlog.
  const EpochGCStats after = AwaitNoPendingGarbage(pma);
  EXPECT_EQ(after.pending_count, 0u) << "backlog must drain after release";
  EXPECT_EQ(after.freed_bytes, after.retired_bytes);
  EXPECT_GT(after.retired_bytes_hwm, 0u);
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
}

// A LoadSorted publish retires the structure it replaces on the calling
// thread, not on the master; it wakes the master, whose passes free that
// structure although the PMA is otherwise idle.
TEST(EpochGCCore, LoadSortedIntoIdlePmaFreesReplacedStructure) {
  ConcurrentPMA pma;
  std::vector<Item> items;
  for (Key k = 1; k <= 10000; ++k) items.push_back({k * 2, k});
  ASSERT_TRUE(pma.LoadSorted(items.data(), items.size()).ok());
  const EpochGCStats after = AwaitNoPendingGarbage(pma);
  EXPECT_EQ(after.retired_count, 1u);
  EXPECT_EQ(after.pending_count, 0u)
      << "the replaced structure must be freed within 1 s";
  EXPECT_EQ(after.freed_bytes, after.retired_bytes);
  EXPECT_EQ(pma.Size(), items.size());
}

}  // namespace
}  // namespace cpma
