// Test helper: wait for a ConcurrentPMA to reclaim what it retired, on
// its own. Nothing here collects; the PMA's rebalancer master must.

#pragma once

#include <chrono>
#include <thread>

#include "concurrent/concurrent_pma.h"

namespace cpma {

/// Polls ebr_stats() until no retired garbage is pending, for at most
/// one second, and returns the last stats read.
inline EpochGCStats AwaitNoPendingGarbage(const ConcurrentPMA& pma) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  EpochGCStats s = pma.ebr_stats();
  while (s.pending_count != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    s = pma.ebr_stats();
  }
  return s;
}

}  // namespace cpma
