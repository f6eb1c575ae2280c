// Fork-based crash-recovery harness (ISSUE 9 tentpole proof).
//
// Each case forks a child that runs a deterministic seeded write storm
// against a ConcurrentPMA, checkpointing every kCkptEvery ops with
// app_stamp = ops applied so far. One failpoint site is armed with a
// `nth:M!crash` policy, so at a seed-chosen hit the child _exit()s
// mid-protocol — mid-chunk-write, between fsync and rename, after the
// CURRENT flip, at a resize's storage allocation — the closest
// userspace approximation of pulling the plug at that instruction.
//
// The parent waits, then plays the recovery path an operator would:
// LatestCheckpoint + Restore from the surviving root. The acceptance
// bar is EXACT: the manifest's app_stamp tells which prefix of the op
// stream the checkpoint claims, the parent replays exactly that prefix
// into a std::map oracle, and the restored PMA must equal it key for
// key, value for value. Any torn artifact must instead be refused
// (which the protocol makes unreachable from CURRENT by construction).
//
// CPMA_CRASH_SEED varies M and the op stream (the CI crash-matrix job
// sweeps it; the nightly soak sets it to the run id). With
// CPMA_SOAK_JSON=<path> each case appends one JSONL record to feed the
// nightly crash.jsonl artifact.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "concurrent/concurrent_pma.h"
#include "persist/checkpoint.h"

namespace cpma {
namespace {

namespace fs = std::filesystem;

constexpr size_t kOps = 6000;
constexpr size_t kCkptEvery = 1000;
constexpr Key kKeySpace = 2048;  // small: plenty of overwrites + deletes

uint64_t CrashSeed() {
  const char* env = std::getenv("CPMA_CRASH_SEED");
  if (env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0') return static_cast<uint64_t>(v);
  }
  return 1;
}

struct Op {
  bool is_insert;
  Key key;
  Value value;
};

// The storm both processes derive independently: child applies all of
// it; parent replays the prefix [0, app_stamp) as the oracle.
std::vector<Op> OpStream(uint64_t seed) {
  std::vector<Op> ops;
  ops.reserve(kOps);
  Random rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (size_t i = 0; i < kOps; ++i) {
    Op op;
    op.key = rng.NextBounded(kKeySpace) + 1;
    op.is_insert = rng.NextBounded(4) != 0;  // 25% deletes
    op.value = rng.Next() >> 1;
    ops.push_back(op);
  }
  return ops;
}

ConcurrentConfig StormConfig() {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 16;  // tiny: force rebalances + resizes
  cfg.segments_per_gate = 4;
  return cfg;
}

// Child body. Never returns; exits 0 (storm completed), crashes with
// failpoint::kCrashExitCode (the armed site fired), or exits 2/3 on a
// harness bug (the parent fails the test on those).
[[noreturn]] void RunChild(const std::string& root, uint64_t seed,
                           const char* site, const std::string& policy) {
  if (!failpoint::Set(site, policy.c_str())) ::_exit(2);
  const std::vector<Op> ops = OpStream(seed);
  ConcurrentPMA pma(StormConfig());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].is_insert) {
      pma.Insert(ops[i].key, ops[i].value);
    } else {
      pma.Remove(ops[i].key);
    }
    if ((i + 1) % kCkptEvery == 0) {
      pma.Flush();
      persist::CheckpointOptions copts;
      copts.dir = root;
      copts.app_stamp = i + 1;
      Status st = persist::Checkpoint(pma, copts, nullptr);
      // The armed policies all crash instead of reporting, so any
      // checkpoint error here is a real harness bug.
      if (!st.ok()) ::_exit(3);
    }
  }
  ::_exit(0);  // storm survived without the site firing (valid outcome)
}

void AppendCrashJson(const char* site, uint64_t seed, int exit_code,
                     bool crashed, uint64_t app_stamp, uint64_t items) {
  const char* path = std::getenv("CPMA_SOAK_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"bench\": \"crash_recovery\", \"site\": \"%s\", "
               "\"seed\": %llu, \"exit\": %d, \"crashed\": %s, "
               "\"app_stamp\": %llu, \"items\": %llu, \"verified\": true}\n",
               site, static_cast<unsigned long long>(seed), exit_code,
               crashed ? "true" : "false",
               static_cast<unsigned long long>(app_stamp),
               static_cast<unsigned long long>(items));
  std::fclose(f);
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
    char tmpl[] = "/tmp/cpma_crash_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    if (!root_.empty()) {
      std::error_code ec;
      fs::remove_all(root_, ec);
    }
  }

  // Fork the storm with `site` armed, then recover and verify exactly.
  // `deterministic` sites are hit on every checkpoint attempt, so the
  // child MUST die by the crash exit code; opportunistic sites (inside
  // the background rebalancer) may legitimately never fire.
  void RunCase(const char* site, bool deterministic) {
    SCOPED_TRACE(site);
    const uint64_t seed = CrashSeed();
    // 1..3 fires before the crash: lands the plug-pull at different
    // depths of the publication protocol run to run.
    char policy[32];
    std::snprintf(policy, sizeof(policy), "nth:%llu!crash",
                  static_cast<unsigned long long>(1 + seed % 3));

    ::pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      RunChild(root_, seed, site, policy);  // never returns
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                   << WTERMSIG(status);
    const int code = WEXITSTATUS(status);
    const bool crashed = code == failpoint::kCrashExitCode;
    ASSERT_TRUE(code == 0 || crashed) << "child exit " << code;
    if (deterministic) {
      EXPECT_TRUE(crashed) << "armed site never fired: " << site;
    }

    // 2. Recover exactly what the last completed checkpoint claims.
    persist::CheckpointInfo info;
    Status st = persist::LatestCheckpoint(root_, &info);
    if (st.IsKeyNotFound()) {
      // Crashed before the first checkpoint ever published — nothing
      // to restore is a correct recovery outcome for those sites.
      EXPECT_TRUE(crashed);
      AppendCrashJson(site, seed, code, crashed, 0, 0);
      return;
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_GT(info.app_stamp, 0u);
    ASSERT_LE(info.app_stamp, kOps);
    ASSERT_EQ(info.app_stamp % kCkptEvery, 0u)
        << "app_stamp must be a checkpoint boundary";

    ConcurrentPMA restored(StormConfig());
    persist::CheckpointInfo rinfo;
    ASSERT_TRUE(persist::Restore(root_, &restored, &rinfo).ok());
    EXPECT_EQ(rinfo.seq, info.seq);

    // 3. The oracle: the exact op prefix the manifest claims.
    const std::vector<Op> ops = OpStream(seed);
    std::map<Key, Value> oracle;
    for (size_t i = 0; i < info.app_stamp; ++i) {
      if (ops[i].is_insert) {
        oracle[ops[i].key] = ops[i].value;
      } else {
        oracle.erase(ops[i].key);
      }
    }
    ASSERT_EQ(restored.Size(), oracle.size());
    auto it = oracle.begin();
    restored.Scan(kKeyMin, kKeyMax, [&](Key k, Value v) {
      EXPECT_NE(it, oracle.end());
      if (it != oracle.end()) {
        EXPECT_EQ(k, it->first);
        EXPECT_EQ(v, it->second);
        ++it;
      }
      return true;
    });
    EXPECT_EQ(it, oracle.end());
    AppendCrashJson(site, seed, code, crashed, info.app_stamp, info.items);
  }

  std::string root_;
};

// The eight deterministic crash sites: every step of the checkpoint
// publication protocol, plug pulled right before the step executes.
TEST_F(CrashRecoveryTest, MidChunkWrite) {
  RunCase("persist.chunk_write", /*deterministic=*/true);
}
TEST_F(CrashRecoveryTest, MidChunkFsync) {
  RunCase("persist.chunk_fsync", true);
}
TEST_F(CrashRecoveryTest, MidManifestWrite) {
  RunCase("persist.manifest_write", true);
}
TEST_F(CrashRecoveryTest, MidManifestRename) {
  RunCase("persist.manifest_rename", true);
}
TEST_F(CrashRecoveryTest, MidRootFsync) {
  RunCase("persist.dir_fsync", true);
}
TEST_F(CrashRecoveryTest, MidCurrentWrite) {
  RunCase("persist.current_write", true);
}
TEST_F(CrashRecoveryTest, MidCurrentRename) {
  RunCase("persist.current_rename", true);
}
TEST_F(CrashRecoveryTest, MidGcUnlink) {
  RunCase("persist.gc_unlink", true);
}

// Opportunistic site inside the storage layer: the crash lands at a
// storage allocation (a resize) rather than inside the persist
// protocol. Surviving the whole storm without the site firing is a
// valid outcome.
TEST_F(CrashRecoveryTest, MidRegionCreate) {
  RunCase("storage.create", false);
}

}  // namespace
}  // namespace cpma
