// Deterministic failpoint framework (tentpole of the robustness PR).
//
// A failpoint is a named site in fallible code (syscall wrappers,
// allocations, spawn paths) that can be armed to report failure without
// the underlying operation actually failing. Sites are evaluated with
//
//     if (CPMA_FAILPOINT("storage.create") || mem == MAP_FAILED) { ... }
//
// so the degraded path downstream of the site is exactly the one a real
// failure would take. Policies per site:
//
//     off          never fires (same as not configured)
//     always       fires on every hit
//     once         fires on the first hit only (= times:1)
//     times:N      fires on the first N hits, then recovers
//     nth:N        fires on every Nth hit (hit N, 2N, 3N, ...)
//     prob:P[:S]   fires with probability P in [0,1], seeded with S
//                  (default seed 0) — deterministic given the per-site
//                  hit sequence
//
// Any policy may carry a `!crash` action suffix ("site=nth:3!crash"):
// when the site fires, instead of reporting failure to the caller the
// process terminates immediately via _exit(kCrashExitCode) — no atexit
// handlers, no stdio flush, no destructors, i.e. the closest userspace
// approximation of pulling the plug at that instruction. This turns
// every instrumented site (storage allocation, each persist-layer
// syscall) into a crash site for the fork-based crash-recovery harness
// (tests/test_crash_recovery.cc). '!' is used because ';' and ',' are
// both clause separators in this grammar.
//
// Configuration comes from the CPMA_FAILPOINTS environment variable
// ("site=spec;site=spec", parsed once at first evaluation; ',' also
// accepted as a separator) or from the programmatic API below (tests,
// chaos soak conductor). Both may target sites that do not exist — the
// spec simply never matches a hit.
//
// Cost model: every site first checks a single relaxed atomic counter of
// armed sites (one load + predicted-not-taken branch); the registry
// lookup happens only while at least one site is armed. All instrumented
// sites are slow paths (storage allocation, thread spawn, GC slot
// growth, persist syscalls) — nothing per-element.
//
// The whole subsystem is compiled out when the build sets
// -DCPMA_FAILPOINTS_ENABLED=0 (CMake option CPMA_ENABLE_FAILPOINTS=OFF):
// CPMA_FAILPOINT(site) becomes a constant false and the API below turns
// into no-op inlines, so shipping binaries carry no registry at all.

#pragma once

#include <cstdint>

#ifndef CPMA_FAILPOINTS_ENABLED
#define CPMA_FAILPOINTS_ENABLED 1
#endif

#if CPMA_FAILPOINTS_ENABLED

#include <atomic>
#include <string>
#include <vector>

namespace cpma {
namespace failpoint {

/// True in builds that carry the registry (tests GTEST_SKIP otherwise).
inline constexpr bool kCompiledIn = true;

/// Exit code used by the `!crash` action; the crash harness parent
/// asserts on it to distinguish an injected crash from a real abort.
inline constexpr int kCrashExitCode = 87;

namespace internal {
// Number of currently armed sites; the fast-path gate for every
// CPMA_FAILPOINT evaluation.
extern std::atomic<int> g_armed;
}  // namespace internal

inline bool Armed() {
  return internal::g_armed.load(std::memory_order_relaxed) != 0;
}

/// Slow path: look up `site` in the registry and apply its policy.
/// Returns true iff the site should report failure for this hit.
bool Evaluate(const char* site);

/// Arm `site` with a policy spec (grammar above). Returns false and
/// leaves the site unchanged if the spec does not parse.
bool Set(const char* site, const char* spec);

/// Disarm one site / all sites. Hit and fire counters are kept (they
/// describe history, not configuration); ClearAll() resets them too.
void Clear(const char* site);
void ClearAll();

/// Parse a full "site=spec;site=spec" config string (the CPMA_FAILPOINTS
/// grammar). Returns false if any clause failed to parse; valid clauses
/// before and after a bad one are still applied.
bool ConfigureFromString(const char* config);

/// Times `site` fired (reported failure) / was evaluated.
uint64_t Fires(const char* site);
uint64_t Hits(const char* site);

/// Total fires across all sites since process start (bench observability
/// — a fault-free run must report 0).
uint64_t TotalFires();

/// Name of the most recent site that fired on the calling thread, or
/// nullptr. The CPMA_CHECK abort handler prints this so a crash in a
/// fault-injection run is attributable to the injected fault.
const char* LastFired();

/// Names of all sites ever configured or evaluated (diagnostics).
std::vector<std::string> KnownSites();

}  // namespace failpoint
}  // namespace cpma

#define CPMA_FAILPOINT(site) \
  (::cpma::failpoint::Armed() && ::cpma::failpoint::Evaluate(site))

#else  // !CPMA_FAILPOINTS_ENABLED

#include <string>
#include <vector>

namespace cpma {
namespace failpoint {

inline constexpr bool kCompiledIn = false;
inline constexpr int kCrashExitCode = 87;

inline bool Armed() { return false; }
inline bool Evaluate(const char*) { return false; }
inline bool Set(const char*, const char*) { return false; }
inline void Clear(const char*) {}
inline void ClearAll() {}
inline bool ConfigureFromString(const char*) { return false; }
inline uint64_t Fires(const char*) { return 0; }
inline uint64_t Hits(const char*) { return 0; }
inline uint64_t TotalFires() { return 0; }
inline const char* LastFired() { return nullptr; }
inline std::vector<std::string> KnownSites() { return {}; }

}  // namespace failpoint
}  // namespace cpma

#define CPMA_FAILPOINT(site) (false)

#endif  // CPMA_FAILPOINTS_ENABLED
