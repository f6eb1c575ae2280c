// Crash-consistent checkpoint/restore of PMA snapshots (ISSUE 9).
//
// A checkpoint serializes a frozen snapshot (PMASnapshot or
// ShardedSnapshot) into its own directory under a checkpoint root:
//
//   <root>/
//     CURRENT              "ckpt-<seq>\n" — the loadable checkpoint
//     ckpt-<seq>/
//       shard-<i>.dat      item records, one file per shard
//       MANIFEST           text manifest, self-checksummed
//
// Chunk file format: 8-byte magic "CPMACKPT", u32 format version,
// u32 shard index, then records of [u32 payload_len][u32 crc32c(payload)]
// [payload = packed Items] until EOF. CRC32C is the runtime-dispatched
// SSE4.2/scalar kernel in common/hotpath/crc32c.h.
//
// MANIFEST lines: "cpma-checkpoint <version>", "seq <n>",
// "app_stamp <n>", "shards <n>", "items <n>", one
// "chunk <file> <bytes> <whole-file-crc-hex>" per chunk, and a final
// "crc <hex>" over every preceding manifest byte.
//
// Write protocol (all I/O through the EINTR-safe helpers in
// common/status.h): chunks and MANIFEST are written into a temp
// directory and fsynced; the temp directory is renamed to ckpt-<seq>;
// the root is fsynced; CURRENT is published via write-temp -> fsync ->
// atomic rename -> dir fsync. A crash at ANY point (the persist.*
// failpoints inject one at each step) leaves either the previous
// CURRENT checkpoint fully loadable or no checkpoint at all — a torn
// checkpoint is never reachable from CURRENT, and Restore() verifies
// every manifest and chunk checksum — and the order of the keys —
// before touching the target, so a tampered, truncated or hostile
// checkpoint is always detected and refused.
//
// app_stamp is an application progress marker stored verbatim (the
// crash harness uses it as its replay oracle: "ops [0, app_stamp) are
// in this checkpoint").

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "pma/item.h"

namespace cpma {

class ConcurrentPMA;
class PMASnapshot;
class ShardedPMA;
class ShardedSnapshot;

namespace persist {

inline constexpr uint32_t kFormatVersion = 1;

struct CheckpointOptions {
  /// Checkpoint root. Empty = $CPMA_CHECKPOINT_DIR (an empty/unset env
  /// is an InvalidArgument error — checkpoints never guess a location).
  std::string dir;
  /// Application progress marker stored in the manifest.
  uint64_t app_stamp = 0;
  /// Completed checkpoints retained after a successful publish (the
  /// new one included). Older ckpt-* directories are garbage-collected
  /// best-effort; GC failures never fail the checkpoint.
  size_t keep = 2;
};

struct CheckpointInfo {
  uint64_t seq = 0;
  uint64_t app_stamp = 0;
  uint64_t items = 0;
  size_t shards = 0;
  std::string path;  // <root>/ckpt-<seq>
};

/// Serialize a frozen snapshot. On success `info` (when non-null)
/// describes the published checkpoint.
Status WriteCheckpoint(const PMASnapshot& snap, const CheckpointOptions& opts,
                       CheckpointInfo* info = nullptr);
Status WriteCheckpoint(const ShardedSnapshot& snap,
                       const CheckpointOptions& opts,
                       CheckpointInfo* info = nullptr);

/// Convenience: capture a snapshot and serialize it in one call.
Status Checkpoint(const ConcurrentPMA& pma, const CheckpointOptions& opts,
                  CheckpointInfo* info = nullptr);
Status Checkpoint(ShardedPMA& pma, const CheckpointOptions& opts,
                  CheckpointInfo* info = nullptr);

/// Identify the checkpoint CURRENT points at, fully verifying its
/// manifest checksum. KeyNotFound when the root holds no checkpoint.
Status LatestCheckpoint(const std::string& dir, CheckpointInfo* info);

/// Read and checksum-verify every item of the CURRENT checkpoint.
/// Items arrive in chunk order (globally sorted for single-PMA and
/// range-sharded checkpoints). Any mismatch — manifest CRC, chunk size,
/// whole-file CRC, record CRC, truncation, a chunk whose keys do not
/// ascend strictly or exceed kKeyMax — refuses the checkpoint with
/// Internal (naming the failing artifact) and bumps
/// restore_verify_failures.
Status ReadCheckpointItems(const std::string& dir, std::vector<Item>* items,
                           CheckpointInfo* info = nullptr);

/// Rebuild `pma` from the CURRENT checkpoint: read and verify as
/// ReadCheckpointItems, order the items into one strictly ascending run
/// (sorting only when the chunks interleave, as a hash-sharded
/// checkpoint's do; a key in two chunks is refused like a CRC
/// mismatch), then bulk-load it with LoadSorted — one sized pass, no
/// re-insertion. The target must be empty with no open snapshot
/// (InvalidArgument otherwise), and no other client may use it during
/// the call. A failed allocation returns ResourceExhausted; on any
/// error the target is left empty and usable. The sharded variant
/// routes the run through the live router, so the restored fleet may
/// have a different shard count or partitioning than the writer's.
Status Restore(const std::string& dir, ConcurrentPMA* pma,
               CheckpointInfo* info = nullptr);
Status Restore(const std::string& dir, ShardedPMA* pma,
               CheckpointInfo* info = nullptr);

/// Process-global durability counters (bench JSON; monotone).
struct PersistCounters {
  std::atomic<uint64_t> checkpoints_written{0};
  std::atomic<uint64_t> checkpoint_bytes{0};  // chunk+manifest bytes, cumulative
  std::atomic<uint64_t> restores{0};
  std::atomic<uint64_t> restore_verify_failures{0};
};
PersistCounters& Counters();

}  // namespace persist
}  // namespace cpma
