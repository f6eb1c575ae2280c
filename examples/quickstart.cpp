// Quickstart: the 5-minute tour of the library.
//
//  1. Sequential PMA — the underlying sorted-array-with-gaps structure,
//     including a dump of the calibrator tree (Figure 1 of the paper).
//  2. Concurrent PMA — the paper's contribution: gates, static index,
//     rebalancer service and asynchronous updates, exercised from
//     multiple threads.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <thread>
#include <vector>

#include "concurrent/concurrent_pma.h"
#include "pma/sequential_pma.h"

int main() {
  using namespace cpma;

  // --- 1. Sequential PMA ------------------------------------------------
  std::printf("== Sequential PMA ==\n");
  PmaConfig seq_cfg;
  seq_cfg.segment_capacity = 8;  // tiny segments so the tree is visible
  SequentialPMA seq(seq_cfg);
  for (Key k = 1; k <= 40; ++k) seq.Insert(k * 10, k);
  std::printf("%s", seq.DebugDumpCalibratorTree().c_str());

  Value v = 0;
  seq.Find(100, &v);
  std::printf("Find(100) -> %llu\n", static_cast<unsigned long long>(v));
  std::printf("Range scan [95, 135]: ");
  seq.Scan(95, 135, [](Key k, Value) {
    std::printf("%llu ", static_cast<unsigned long long>(k));
    return true;
  });
  std::printf("\nrebalances so far: %llu\n\n",
              static_cast<unsigned long long>(seq.num_rebalances()));

  // --- 2. Concurrent PMA ------------------------------------------------
  std::printf("== Concurrent PMA (paper configuration) ==\n");
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 128;   // B = 128
  cfg.segments_per_gate = 8;        // gate = 8 segments
  cfg.async_mode = ConcurrentConfig::AsyncMode::kBatch;
  cfg.t_delay_ms = 100;             // batch throttle
  ConcurrentPMA pma(cfg);

  // 8 writers insert disjoint keys while 2 readers scan concurrently.
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&, w] {
      for (Key k = 0; k < 100000; ++k) {
        pma.Insert(k * 8 + static_cast<Key>(w), k);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        volatile uint64_t sink = pma.SumAll();
        (void)sink;
        scans.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 8; ++i) threads[static_cast<size_t>(i)].join();
  stop.store(true);
  threads[8].join();
  threads[9].join();
  pma.Flush();  // wait for asynchronously combined updates

  std::printf("size:              %zu\n", pma.Size());
  std::printf("capacity:          %zu slots\n", pma.capacity());
  std::printf("full scans done:   %llu (concurrent with the inserts)\n",
              static_cast<unsigned long long>(scans.load()));
  std::printf("local rebalances:  %llu\n",
              static_cast<unsigned long long>(pma.num_local_rebalances()));
  std::printf("global rebalances: %llu (master/worker service)\n",
              static_cast<unsigned long long>(pma.num_global_rebalances()));
  std::printf("resizes:           %llu (epoch-protected)\n",
              static_cast<unsigned long long>(pma.num_resizes()));
  std::printf("combined ops:      %llu (forwarded between writers)\n",
              static_cast<unsigned long long>(pma.num_queued_ops()));

  std::string err;
  std::printf("invariants:        %s\n",
              pma.CheckInvariants(&err) ? "OK" : err.c_str());
  return 0;
}
