// Tunables of the packed memory array (paper §2 and §4 configuration).

#pragma once

#include <cstddef>
#include <cstdint>

namespace cpma {

struct PmaConfig {
  /// Slots per segment (B in the paper; 128 in the evaluation, ablation
  /// uses 256). Must be a power of two >= 4.
  size_t segment_capacity = 128;

  /// Density thresholds 0 <= rho_leaf < rho_root <= tau_root < tau_leaf <= 1
  /// (rho_1, rho_h, tau_h, tau_1 in the paper). Defaults are the paper's:
  /// rho_1 = 0.5, tau_1 = 1, rho_h = tau_h = 0.75.
  double rho_leaf = 0.5;
  double rho_root = 0.75;
  double tau_root = 0.75;
  double tau_leaf = 1.0;

  /// Paper §4: "we relax the lower threshold to rho_1 = 0". When true,
  /// deletions only trigger a local rebalance when a segment would become
  /// empty (we keep >= 1 element per segment whenever N >= #segments so
  /// that routing stays well-defined), and the array shrinks only on the
  /// global density check below.
  bool relax_lower = true;

  /// Global density below which the array is downsized. The paper states
  /// 50%; combined with power-of-two capacity halving/doubling that value
  /// would oscillate (doubling lands at 37.5%), so we use 0.3 as the
  /// hysteresis point (documented in DESIGN.md).
  double shrink_density = 0.3;

  /// Adaptive rebalancing (Bender & Hu; paper §2 "Adaptive rebalancing").
  /// Gaps are allocated proportionally to recent insertion activity
  /// (weight 1 + decayed per-segment insert counter), for every window
  /// spread; resizes always split evenly. The concurrent PMA applies it
  /// in sync and one-by-one modes only (batch mode uses the even split,
  /// paper §3.5). On right-edge appends it more than halves the global
  /// rebalances: single-thread sync ConcurrentPMA (B = 128, 8 segments
  /// per gate), keys 2..400,000 step 2 preloaded, then appending
  /// 400,001..600,000 runs 996 global windows, against 2,515 with the
  /// even split.
  bool adaptive = true;

  /// Has no effect. The paper publishes each rebalance by remapping the
  /// window's pages (memory rewiring, paper §2); here every rebalance
  /// publishes by one copy (pma/storage.h gives the measured costs).
  bool use_rewiring = false;

  /// Initial number of segments (power of two, >= 2).
  size_t initial_num_segments = 2;
};

struct ConcurrentConfig {
  PmaConfig pma;

  /// Segments per gate (paper §4: 8).
  size_t segments_per_gate = 8;

  /// Fan-out of the static index over gates.
  size_t index_fanout = 16;

  /// Has no effect. The paper sizes a rebalancer worker pool (§4: 8);
  /// here the master merges every window alone (concurrent/rebalancer.h),
  /// so a ConcurrentPMA starts no worker threads.
  size_t rebalancer_workers = 8;

  /// Asynchronous update policy (paper §3.5).
  enum class AsyncMode { kSync, kOneByOne, kBatch };
  AsyncMode async_mode = AsyncMode::kBatch;

  /// Minimum time between global rebalances of the same gate in batch
  /// mode (paper §3.5; evaluation default 100 ms).
  int64_t t_delay_ms = 100;

  /// Rebalancer stall watchdog (ISSUE 7). When > 0, a background checker
  /// thread inside the rebalancer samples the master's monotone progress
  /// stamp and, if the master is mid-rebalance and the stamp has not
  /// moved for this many milliseconds, logs a diagnosis (phase, active
  /// window, per-gate state dumps) to stderr and bumps the
  /// watchdog_trips counter. Detection only — it never kills or steals
  /// work. 0 (default) disables the checker. Overridden at construction
  /// by the CPMA_WATCHDOG_MS environment variable when set.
  int64_t watchdog_ms = 0;

  /// Logical CPU id the rebalancer master pins itself to at startup
  /// (via the topology-aware pinner in common/pin.h); -1 (default) leaves
  /// it unpinned. ShardedPMA's pin_workers gives each shard's master a
  /// home core this way.
  int rebalancer_cpu = -1;

  /// Optimistic read path (ISSUE 4): how many seqlock windows a reader
  /// attempts per gate (failed validations, mutator-active snapshots and
  /// neighbour walks all count) before falling back to the blocking READ
  /// latch. 0 disables the optimistic path entirely — every read takes
  /// the latch, which is also the forced-fallback test mode. Overridden
  /// at construction by the CPMA_OPTIMISTIC_RETRIES environment
  /// variable when set.
  int optimistic_retries = 8;
};

}  // namespace cpma
