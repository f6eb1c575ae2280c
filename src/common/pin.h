// Thread-to-core pinning (best effort), topology-aware since ISSUE 8.
//
// The paper pins all threads to a single NUMA node; in a container we
// must work with whatever CPU set the OS grants. The old implementation
// pinned slot s to logical CPU `s % hardware_concurrency()`, which is
// wrong twice over on restricted or non-contiguous CPU sets (cgroup
// cpusets, taskset, offlined cores): hardware_concurrency() reports the
// machine, not the allowed mask, and the raw modulo can land on a CPU
// the process may not run on — pthread_setaffinity_np then fails and
// every "pinned" thread silently floats.
//
// The upgrade reads the actually-allowed mask (sched_getaffinity) and
// the sysfs topology (core_id / physical_package_id per logical CPU),
// then builds a *pin order*: one logical CPU per distinct physical core
// first — round-robin across packages — and only then the remaining SMT
// siblings. Slot s pins to pin_order[s % n], so the first `num_cores`
// bench threads or shard masters each own a physical core before any two
// share one. The detected placement is exposed for bench JSON records
// (TopologySummary / PinCpuForSlot), so a measurement on a weird host
// carries the evidence of where its threads actually ran.

#pragma once

#include <string>
#include <vector>

namespace cpma {

/// The process' CPU placement universe, detected once (first use) from
/// sched_getaffinity + /sys/devices/system/cpu/*/topology. Immutable
/// afterwards; cheap to hand around by reference.
struct CpuTopology {
  /// Logical CPU ids the process may run on, in pin order: distinct
  /// physical cores first (round-robin over packages), SMT siblings
  /// after. Empty when affinity control is unavailable (non-Linux, or
  /// sched_getaffinity failed) — pinning is then a silent no-op.
  std::vector<int> pin_order;
  /// Allowed logical CPUs (== pin_order.size() when available).
  int num_cpus = 0;
  /// Distinct (package, core) pairs among the allowed CPUs. Equal to
  /// num_cpus on non-SMT hosts or when sysfs topology is unreadable
  /// (every CPU then counts as its own core — the pre-topology
  /// behaviour, just restricted to the allowed mask).
  int num_cores = 0;
  /// True when at least two allowed CPUs share a physical core.
  bool smt = false;
};

/// Cached process topology (thread-safe; detected on first call).
const CpuTopology& Topology();

/// Pin the calling thread to the pin-order slot `slot` (mod the number
/// of allowed CPUs). Returns true on success; false (and no affinity
/// change) when the platform offers no affinity control.
bool PinThisThread(unsigned slot);

/// Logical CPU id slot `slot` pins to, or -1 when pinning is
/// unavailable. Placement observability for bench JSON.
int PinCpuForSlot(unsigned slot);

/// Pin the calling thread to the exact logical CPU `cpu` (no pin-order
/// indirection) — for callers that already resolved placement, like the
/// rebalancer honouring ConcurrentConfig::rebalancer_cpu. Returns false
/// when the CPU is not in the allowed set or affinity is unavailable.
bool PinToCpu(int cpu);

/// One-line placement summary for bench records / logs, e.g.
/// "cpus=8 cores=4 smt=on order=0,2,4,6,1,3,5,7" (order truncated on
/// wide hosts). "cpus=0" means pinning is unavailable.
std::string TopologySummary();

}  // namespace cpma
