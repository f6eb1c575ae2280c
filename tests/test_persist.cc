// Durability tier (ISSUE 9): CRC32C kernels, checkpoint round-trips,
// and torn/tampered-checkpoint refusal.
//
//  - Crc32c*: known iSCSI vectors, streaming == one-shot, and the
//    scalar/SSE4.2 kernels cross-checked on random buffers (the
//    property the runtime dispatch relies on).
//  - Roundtrip*: snapshot -> checkpoint -> restore reproduces the exact
//    key/value map for a single PMA, an empty PMA, and a hash-sharded
//    fleet restored into a *differently partitioned* fleet and into a
//    single PMA (its chunks interleave, so the restore sorts them).
//  - RestoreBuildsInOnePass: a restore bulk-loads the array — no
//    rebalance, the resize policy's capacity — and the loaded map then
//    serves writers and a scanner exactly, in sync and batch mode.
//  - Torn*/Tamper*: every way a checkpoint can be damaged — a failed
//    publication step (failpoint), a flipped chunk byte, a truncated
//    manifest, garbage CURRENT, a deleted chunk — must leave the root
//    either refusing the load (verify-failure counter bumps) or still
//    serving the previous intact checkpoint. A torn checkpoint is never
//    loadable. CRC-valid hostile payloads (a reserved key, a duplicate,
//    a descending pair, a key in two chunks) are refused the same way,
//    and a failed storage allocation leaves the target empty and usable.
//  - Gc*: the keep-last-N retention drops old checkpoint directories
//    but never the one CURRENT names.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/hotpath/crc32c.h"
#include "common/random.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/snapshot.h"
#include "persist/checkpoint.h"
#include "sharded/sharded_pma.h"

namespace cpma {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cpma_persist_XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path_ = p;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------------------- crc32c

TEST(Crc32c, KnownVectors) {
  // iSCSI / RFC 3720 test vectors.
  EXPECT_EQ(hotpath::Crc32c("", 0), 0x00000000u);
  EXPECT_EQ(hotpath::Crc32c("123456789", 9), 0xE3069283u);
  unsigned char zeros[32] = {0};
  EXPECT_EQ(hotpath::Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  unsigned char ones[32];
  std::memset(ones, 0xFF, sizeof(ones));
  EXPECT_EQ(hotpath::Crc32c(ones, sizeof(ones)), 0x62A8AB43u);
}

TEST(Crc32c, StreamingMatchesOneShot) {
  Random rng(7);
  std::vector<char> buf(8192);
  for (char& c : buf) c = static_cast<char>(rng.Next());
  const uint32_t whole = hotpath::Crc32c(buf.data(), buf.size());
  // Split at awkward boundaries, including 0-length pieces.
  for (size_t cut1 : {size_t{0}, size_t{1}, size_t{7}, size_t{4096}}) {
    for (size_t cut2 : {cut1, cut1 + 13, buf.size() - 1}) {
      uint32_t crc = hotpath::Crc32cExtend(0, buf.data(), cut1);
      crc = hotpath::Crc32cExtend(crc, buf.data() + cut1, cut2 - cut1);
      crc = hotpath::Crc32cExtend(crc, buf.data() + cut2, buf.size() - cut2);
      EXPECT_EQ(crc, whole) << "cuts " << cut1 << "/" << cut2;
    }
  }
}

TEST(Crc32c, KernelsAgree) {
  const char* name = hotpath::ActiveCrc32cDispatchName();
  EXPECT_TRUE(std::string(name) == "sse42" || std::string(name) == "scalar");
#if defined(__x86_64__) || defined(__i386__)
  if (!hotpath::Crc32cHaveSse42()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  Random rng(11);
  for (size_t len : {size_t{0}, size_t{1}, size_t{3}, size_t{8}, size_t{15},
                     size_t{64}, size_t{1000}, size_t{65536}}) {
    std::vector<char> buf(len + 1);  // +1: never pass a null data ptr
    for (char& c : buf) c = static_cast<char>(rng.Next());
    EXPECT_EQ(hotpath::ScalarCrc32c(0, buf.data(), len),
              hotpath::Sse42Crc32c(0, buf.data(), len))
        << "len " << len;
    // And from a nonzero seed (streaming restart).
    EXPECT_EQ(hotpath::ScalarCrc32c(0xDEADBEEF, buf.data(), len),
              hotpath::Sse42Crc32c(0xDEADBEEF, buf.data(), len));
  }
#endif
}

// ---------------------------------------------------------- roundtrips

std::map<Key, Value> FillPma(ConcurrentPMA* pma, size_t n, uint64_t seed) {
  std::map<Key, Value> oracle;
  Random rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Key k = rng.NextBounded(4 * n) + 1;
    Value v = rng.Next() >> 1;
    pma->Insert(k, v);
    oracle[k] = v;
  }
  pma->Flush();
  return oracle;
}

void ExpectExactly(const std::map<Key, Value>& oracle, OrderedMap* m) {
  ASSERT_EQ(m->Size(), oracle.size());
  auto it = oracle.begin();
  m->Scan(kKeyMin, kKeyMax, [&](Key k, Value v) {
    EXPECT_NE(it, oracle.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
    return true;
  });
  EXPECT_EQ(it, oracle.end());
}

TEST(Persist, RoundtripSinglePma) {
  TempDir dir;
  ConcurrentPMA pma;
  auto oracle = FillPma(&pma, 5000, 42);

  persist::CheckpointOptions opts;
  opts.dir = dir.path();
  opts.app_stamp = 5000;
  persist::CheckpointInfo info;
  ASSERT_TRUE(persist::Checkpoint(pma, opts, &info).ok());
  EXPECT_EQ(info.seq, 1u);
  EXPECT_EQ(info.app_stamp, 5000u);
  EXPECT_EQ(info.items, oracle.size());
  EXPECT_EQ(info.shards, 1u);

  persist::CheckpointInfo latest;
  ASSERT_TRUE(persist::LatestCheckpoint(dir.path(), &latest).ok());
  EXPECT_EQ(latest.seq, 1u);
  EXPECT_EQ(latest.items, oracle.size());

  ConcurrentPMA restored;
  persist::CheckpointInfo rinfo;
  ASSERT_TRUE(persist::Restore(dir.path(), &restored, &rinfo).ok());
  EXPECT_EQ(rinfo.app_stamp, 5000u);
  ExpectExactly(oracle, &restored);
}

TEST(Persist, RoundtripEmptyPma) {
  TempDir dir;
  ConcurrentPMA pma;
  persist::CheckpointOptions opts;
  opts.dir = dir.path();
  ASSERT_TRUE(persist::Checkpoint(pma, opts, nullptr).ok());
  ConcurrentPMA restored;
  persist::CheckpointInfo info;
  ASSERT_TRUE(persist::Restore(dir.path(), &restored, &info).ok());
  EXPECT_EQ(info.items, 0u);
  EXPECT_EQ(restored.Size(), 0u);
}

TEST(Persist, RoundtripShardedAcrossPartitionings) {
  TempDir dir;
  std::map<Key, Value> oracle;
  {
    ShardedConfig cfg;
    cfg.num_shards = 4;
    cfg.partition = ShardedConfig::Partition::kHash;
    ShardedPMA pma(cfg);
    Random rng(7);
    for (size_t i = 0; i < 4000; ++i) {
      Key k = rng.NextBounded(100000) + 1;
      Value v = rng.Next() >> 1;
      pma.Insert(k, v);
      oracle[k] = v;
    }
    pma.Flush();
    persist::CheckpointOptions opts;
    opts.dir = dir.path();
    persist::CheckpointInfo info;
    ASSERT_TRUE(persist::Checkpoint(pma, opts, &info).ok());
    EXPECT_EQ(info.shards, 4u);
    EXPECT_EQ(info.items, oracle.size());
  }
  // Restore into a *range*-partitioned fleet with a different shard
  // count: items must re-route through the live router.
  ShardedConfig cfg;
  cfg.num_shards = 2;
  cfg.partition = ShardedConfig::Partition::kRange;
  ShardedPMA restored(cfg);
  ASSERT_TRUE(persist::Restore(dir.path(), &restored, nullptr).ok());
  ExpectExactly(oracle, &restored);
  // And into a single PMA: the hash shards' chunks concatenate
  // unsorted, so the restore sorts them before the load.
  ConcurrentPMA single;
  ASSERT_TRUE(persist::Restore(dir.path(), &single, nullptr).ok());
  ExpectExactly(oracle, &single);
  std::string err;
  EXPECT_TRUE(single.CheckInvariants(&err)) << err;
}

// The restored map is built by one sized pass: no rebalance ran and
// its capacity is what a resize picks for the item count. It then
// takes concurrent writers and a scanner like any other map.
TEST(Persist, RestoreBuildsInOnePass) {
  constexpr size_t kItems = 200000;
  TempDir dir;
  std::map<Key, Value> oracle;
  {
    ConcurrentConfig cfg;
    cfg.async_mode = ConcurrentConfig::AsyncMode::kSync;
    ConcurrentPMA pma(cfg);
    for (size_t i = 0; i < kItems; ++i) {
      const Key k = 3 * i + 1;
      pma.Insert(k, k * 7);
      oracle[k] = k * 7;
    }
    pma.Flush();
    persist::CheckpointOptions opts;
    opts.dir = dir.path();
    ASSERT_TRUE(persist::Checkpoint(pma, opts, nullptr).ok());
  }
  for (const auto mode : {ConcurrentConfig::AsyncMode::kSync,
                          ConcurrentConfig::AsyncMode::kBatch}) {
    SCOPED_TRACE(mode == ConcurrentConfig::AsyncMode::kSync ? "sync"
                                                            : "batch");
    ConcurrentConfig cfg;
    cfg.async_mode = mode;
    ConcurrentPMA pma(cfg);
    ASSERT_TRUE(persist::Restore(dir.path(), &pma, nullptr).ok());
    EXPECT_EQ(pma.num_local_rebalances(), 0u);
    EXPECT_EQ(pma.num_global_rebalances(), 0u);
    EXPECT_EQ(pma.capacity(),
              pma.SegmentsForCount(kItems) * cfg.pma.segment_capacity);
    std::string err;
    EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
    ExpectExactly(oracle, &pma);

    // Two writers on disjoint keys (even / odd i): update or remove a
    // loaded key 3i+1, insert a new key 3i+2. One scanner checks every
    // pass ascends.
    std::map<Key, Value> expect = oracle;
    std::vector<std::map<Key, Value>> sets(2);
    std::vector<std::vector<Key>> removed(2);
    std::atomic<bool> done{false};
    std::atomic<uint64_t> bad_passes{0};
    std::thread scanner([&] {
      while (!done.load(std::memory_order_acquire)) {
        Key prev = 0;
        bool first = true, ordered = true;
        pma.Scan(kKeyMin, kKeyMax, [&](Key k, Value) {
          if (!first && k <= prev) ordered = false;
          first = false;
          prev = k;
          return true;
        });
        if (!ordered) bad_passes.fetch_add(1);
      }
    });
    std::vector<std::thread> writers;
    for (size_t w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        Random rng(100 + w);
        for (size_t op = 0; op < 20000; ++op) {
          const size_t i = 2 * rng.NextBounded(kItems / 2) + w;
          switch (rng.NextBounded(3)) {
            case 0:
              pma.Insert(3 * i + 1, op);
              sets[w][3 * i + 1] = op;
              break;
            case 1:
              pma.Remove(3 * i + 1);
              removed[w].push_back(3 * i + 1);
              sets[w].erase(3 * i + 1);
              break;
            default:
              pma.Insert(3 * i + 2, op);
              sets[w][3 * i + 2] = op;
              break;
          }
        }
      });
    }
    for (auto& t : writers) t.join();
    pma.Flush();
    done.store(true, std::memory_order_release);
    scanner.join();
    // Per writer, the last op on a key decides it; removals recorded
    // in order, so replay them before the surviving sets.
    for (size_t w = 0; w < 2; ++w) {
      for (Key k : removed[w]) expect.erase(k);
    }
    for (size_t w = 0; w < 2; ++w) {
      for (const auto& [k, v] : sets[w]) expect[k] = v;
    }
    EXPECT_EQ(bad_passes.load(), 0u);
    EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
    ExpectExactly(expect, &pma);
  }
}

TEST(Persist, SecondCheckpointSupersedesAndGcKeepsTwo) {
  TempDir dir;
  ConcurrentPMA pma;
  persist::CheckpointOptions opts;
  opts.dir = dir.path();
  opts.keep = 2;
  for (int round = 1; round <= 3; ++round) {
    pma.Insert(static_cast<Key>(round), static_cast<Value>(round * 10));
    pma.Flush();
    opts.app_stamp = static_cast<uint64_t>(round);
    ASSERT_TRUE(persist::Checkpoint(pma, opts, nullptr).ok());
  }
  persist::CheckpointInfo info;
  ASSERT_TRUE(persist::LatestCheckpoint(dir.path(), &info).ok());
  EXPECT_EQ(info.seq, 3u);
  EXPECT_EQ(info.app_stamp, 3u);
  EXPECT_EQ(info.items, 3u);
  // keep=2: ckpt-1 collected, ckpt-2 + ckpt-3 remain.
  EXPECT_FALSE(fs::exists(dir.path() + "/ckpt-1"));
  EXPECT_TRUE(fs::exists(dir.path() + "/ckpt-2"));
  EXPECT_TRUE(fs::exists(dir.path() + "/ckpt-3"));
}

TEST(Persist, EmptyRootReportsNoCheckpoint) {
  TempDir dir;
  persist::CheckpointInfo info;
  Status st = persist::LatestCheckpoint(dir.path(), &info);
  EXPECT_TRUE(st.IsKeyNotFound()) << st.ToString();
  ConcurrentPMA pma;
  EXPECT_TRUE(persist::Restore(dir.path(), &pma, nullptr).IsKeyNotFound());
}

TEST(Persist, RestoreIntoNonEmptyRejected) {
  TempDir dir;
  ConcurrentPMA pma;
  FillPma(&pma, 100, 1);
  persist::CheckpointOptions opts;
  opts.dir = dir.path();
  ASSERT_TRUE(persist::Checkpoint(pma, opts, nullptr).ok());
  EXPECT_TRUE(persist::Restore(dir.path(), &pma, nullptr).IsInvalidArgument());
  // An empty target with an open snapshot is refused too.
  ConcurrentPMA empty;
  {
    std::unique_ptr<PMASnapshot> snap = empty.Snapshot();
    EXPECT_TRUE(
        persist::Restore(dir.path(), &empty, nullptr).IsInvalidArgument());
  }
  EXPECT_EQ(empty.Size(), 0u);
  EXPECT_TRUE(persist::Restore(dir.path(), &empty, nullptr).ok());
}

// ------------------------------------------------- torn / tampered

uint64_t VerifyFailures() {
  return persist::Counters().restore_verify_failures.load(
      std::memory_order_relaxed);
}

class TornCheckpointTest : public ::testing::Test {
 protected:
  // A root with one intact checkpoint (seq 1) of `oracle_`.
  void SetUp() override {
    failpoint::ClearAll();
    pma_ = std::make_unique<ConcurrentPMA>();
    oracle_ = FillPma(pma_.get(), 2000, 99);
    persist::CheckpointOptions opts;
    opts.dir = dir_.path();
    opts.app_stamp = 2000;
    ASSERT_TRUE(persist::Checkpoint(*pma_, opts, nullptr).ok());
  }
  void TearDown() override { failpoint::ClearAll(); }

  void ExpectSeq1StillLoadable() {
    persist::CheckpointInfo info;
    ASSERT_TRUE(persist::LatestCheckpoint(dir_.path(), &info).ok());
    EXPECT_EQ(info.seq, 1u);
    ConcurrentPMA restored;
    ASSERT_TRUE(persist::Restore(dir_.path(), &restored, nullptr).ok());
    ExpectExactly(oracle_, &restored);
  }

  TempDir dir_;
  std::unique_ptr<ConcurrentPMA> pma_;
  std::map<Key, Value> oracle_;
};

TEST_F(TornCheckpointTest, FailedPublicationStepLeavesPreviousLoadable) {
  if (!failpoint::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  // Fail every step of the next checkpoint's publication, one at a
  // time. Each attempt must error out AND leave seq 1 fully loadable —
  // the torn seq-2 artifacts are never reachable from CURRENT.
  const char* steps[] = {
      "persist.chunk_write",    "persist.chunk_fsync",
      "persist.manifest_write", "persist.manifest_rename",
      "persist.dir_fsync",      "persist.current_write",
      "persist.current_rename",
  };
  for (const char* site : steps) {
    ASSERT_TRUE(failpoint::Set(site, "once"));
    pma_->Insert(1, 1);
    pma_->Flush();
    persist::CheckpointOptions opts;
    opts.dir = dir_.path();
    Status st = persist::Checkpoint(*pma_, opts, nullptr);
    EXPECT_FALSE(st.ok()) << site;
    EXPECT_NE(st.message().find(site), std::string::npos) << st.ToString();
    failpoint::Clear(site);
    ExpectSeq1StillLoadable();
  }
  // With no failpoints armed the next attempt succeeds and supersedes.
  pma_->Flush();
  persist::CheckpointOptions opts;
  opts.dir = dir_.path();
  persist::CheckpointInfo info;
  ASSERT_TRUE(persist::Checkpoint(*pma_, opts, &info).ok());
  EXPECT_GE(info.seq, 2u);
}

TEST_F(TornCheckpointTest, FlippedChunkByteRefused) {
  const std::string chunk = dir_.path() + "/ckpt-1/shard-0.dat";
  ASSERT_TRUE(fs::exists(chunk));
  // Flip one payload byte in place.
  std::fstream f(chunk, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(200);
  char c;
  f.seekg(200);
  f.get(c);
  f.seekp(200);
  f.put(static_cast<char>(c ^ 0x01));
  f.close();

  const uint64_t before = VerifyFailures();
  std::vector<Item> items;
  Status st = persist::ReadCheckpointItems(dir_.path(), &items, nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum"), std::string::npos) << st.ToString();
  EXPECT_GT(VerifyFailures(), before);
  ConcurrentPMA restored;
  EXPECT_FALSE(persist::Restore(dir_.path(), &restored, nullptr).ok());
  EXPECT_EQ(restored.Size(), 0u);  // refused before touching the target
}

TEST_F(TornCheckpointTest, TruncatedChunkRefused) {
  const std::string chunk = dir_.path() + "/ckpt-1/shard-0.dat";
  const auto size = fs::file_size(chunk);
  fs::resize_file(chunk, size - 7);
  const uint64_t before = VerifyFailures();
  std::vector<Item> items;
  EXPECT_FALSE(persist::ReadCheckpointItems(dir_.path(), &items, nullptr).ok());
  EXPECT_GT(VerifyFailures(), before);
}

TEST_F(TornCheckpointTest, TruncatedManifestRefused) {
  const std::string manifest = dir_.path() + "/ckpt-1/MANIFEST";
  const auto size = fs::file_size(manifest);
  fs::resize_file(manifest, size - 3);  // cuts into the trailing crc line
  const uint64_t before = VerifyFailures();
  persist::CheckpointInfo info;
  EXPECT_FALSE(persist::LatestCheckpoint(dir_.path(), &info).ok());
  EXPECT_GT(VerifyFailures(), before);
}

TEST_F(TornCheckpointTest, EditedManifestFailsItsCrc) {
  const std::string manifest = dir_.path() + "/ckpt-1/MANIFEST";
  std::string text;
  {
    std::ifstream in(manifest);
    std::getline(in, text, '\0');
  }
  // A plausible-looking edit (inflate the item count) without
  // recomputing the trailing crc.
  size_t pos = text.find("items ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 6] = '9';
  {
    std::ofstream out(manifest, std::ios::trunc);
    out << text;
  }
  const uint64_t before = VerifyFailures();
  persist::CheckpointInfo info;
  Status st = persist::LatestCheckpoint(dir_.path(), &info);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum"), std::string::npos) << st.ToString();
  EXPECT_GT(VerifyFailures(), before);
}

TEST_F(TornCheckpointTest, GarbageCurrentRefused) {
  {
    std::ofstream out(dir_.path() + "/CURRENT", std::ios::trunc);
    out << "../../etc/passwd\n";
  }
  const uint64_t before = VerifyFailures();
  persist::CheckpointInfo info;
  EXPECT_FALSE(persist::LatestCheckpoint(dir_.path(), &info).ok());
  EXPECT_GT(VerifyFailures(), before);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

constexpr size_t kChunkHeader = 16;  // magic, format version, shard index

/// The items of one chunk file, in file order (checksums not checked).
std::vector<Item> ChunkItems(const std::string& path) {
  const std::string data = ReadFile(path);
  std::vector<Item> items;
  for (size_t pos = kChunkHeader; pos + 8 <= data.size();) {
    uint32_t len;
    std::memcpy(&len, data.data() + pos, 4);
    const size_t base = items.size();
    items.resize(base + len / sizeof(Item));
    std::memcpy(items.data() + base, data.data() + pos + 8, len);
    pos += 8 + len;
  }
  return items;
}

/// Rewrite the payloads of chunk `file` in checkpoint directory `ckpt`
/// with `items` (same count, same record boundaries) and re-seal the
/// checkpoint so every checksum matches again: each record's CRC, the
/// chunk's MANIFEST line, and MANIFEST's own crc line.
void RewriteChunkAndReseal(const std::string& ckpt, const std::string& file,
                           const std::vector<Item>& items) {
  const std::string path = ckpt + "/" + file;
  std::string data = ReadFile(path);
  size_t next = 0;
  for (size_t pos = kChunkHeader; pos + 8 <= data.size();) {
    uint32_t len;
    std::memcpy(&len, data.data() + pos, 4);
    std::memcpy(&data[pos + 8], items.data() + next, len);
    next += len / sizeof(Item);
    const uint32_t crc = hotpath::Crc32c(data.data() + pos + 8, len);
    std::memcpy(&data[pos + 4], &crc, 4);
    pos += 8 + len;
  }
  ASSERT_EQ(next, items.size());
  WriteFile(path, data);

  std::string manifest = ReadFile(ckpt + "/MANIFEST");
  char line[128];
  const size_t at = manifest.find("chunk " + file + " ");
  ASSERT_NE(at, std::string::npos);
  std::snprintf(line, sizeof(line), "chunk %s %zu %08x", file.c_str(),
                data.size(), hotpath::Crc32c(data.data(), data.size()));
  manifest.replace(at, manifest.find('\n', at) - at, line);
  manifest.resize(manifest.rfind("crc "));
  std::snprintf(line, sizeof(line), "crc %08x\n",
                hotpath::Crc32c(manifest.data(), manifest.size()));
  WriteFile(ckpt + "/MANIFEST", manifest + line);
}

/// Restore must refuse the checkpoint under `root` with Internal through
/// the verify-failure counter, and leave `map` empty and usable.
template <typename Map>
void ExpectRefusedAndUsable(const std::string& root, Map* map) {
  const uint64_t before = VerifyFailures();
  const Status st = persist::Restore(root, map, nullptr);
  EXPECT_EQ(st.code(), Status::Code::kInternal) << st.ToString();
  EXPECT_EQ(st.message().find("checksum"), std::string::npos)
      << st.ToString();  // re-sealed: refused for its payload
  EXPECT_GT(VerifyFailures(), before);
  EXPECT_EQ(map->Size(), 0u);
  map->Insert(5, 50);
  map->Flush();
  Value v = 0;
  EXPECT_TRUE(map->Find(5, &v));
  EXPECT_EQ(v, 50u);
}

// Every CRC matches, but the payload breaks the load's contract. These
// used to abort (UINT64_MAX) or restore short with OK (duplicate and
// descending keys).
TEST_F(TornCheckpointTest, CrcValidHostileKeysRefused) {
  const std::string ckpt = dir_.path() + "/ckpt-1";
  const std::string chunk_path = ckpt + "/shard-0.dat";
  const std::string chunk0 = ReadFile(chunk_path);
  const std::string manifest0 = ReadFile(ckpt + "/MANIFEST");
  const std::vector<Item> pristine = ChunkItems(chunk_path);
  ASSERT_EQ(pristine.size(), oracle_.size());
  const std::vector<std::pair<const char*, std::function<void(std::vector<Item>*)>>>
      cases = {
          {"reserved key UINT64_MAX",
           [](std::vector<Item>* it) { it->back().key = UINT64_MAX; }},
          {"duplicated key",
           [](std::vector<Item>* it) { (*it)[11].key = (*it)[10].key; }},
          {"descending pair",
           [](std::vector<Item>* it) { std::swap((*it)[10], (*it)[11]); }},
      };
  for (const auto& [name, edit] : cases) {
    SCOPED_TRACE(name);
    std::vector<Item> items = pristine;
    edit(&items);
    RewriteChunkAndReseal(ckpt, "shard-0.dat", items);
    ASSERT_TRUE(persist::LatestCheckpoint(dir_.path(), nullptr).ok());
    ConcurrentPMA single;
    ExpectRefusedAndUsable(dir_.path(), &single);
    std::string err;
    EXPECT_TRUE(single.CheckInvariants(&err)) << err;
    ShardedConfig cfg;
    cfg.num_shards = 2;
    ShardedPMA fleet(cfg);
    ExpectRefusedAndUsable(dir_.path(), &fleet);
    WriteFile(chunk_path, chunk0);
    WriteFile(ckpt + "/MANIFEST", manifest0);
  }
  ExpectSeq1StillLoadable();
}

// A key in two chunks: the hash shards' chunks interleave, so the
// restore sorts them and finds the duplicate.
TEST(Persist, KeyInTwoChunksRefused) {
  TempDir dir;
  {
    ShardedConfig cfg;
    cfg.num_shards = 2;
    cfg.partition = ShardedConfig::Partition::kHash;
    ShardedPMA pma(cfg);
    for (Key k = 1; k <= 2000; ++k) pma.Insert(k, k);
    pma.Flush();
    persist::CheckpointOptions opts;
    opts.dir = dir.path();
    ASSERT_TRUE(persist::Checkpoint(pma, opts, nullptr).ok());
  }
  const std::string ckpt = dir.path() + "/ckpt-1";
  const std::vector<Item> c0 = ChunkItems(ckpt + "/shard-0.dat");
  std::vector<Item> c1 = ChunkItems(ckpt + "/shard-1.dat");
  // Give one chunk-1 item a chunk-0 key that keeps chunk 1 ascending.
  bool planted = false;
  for (size_t j = 1; j + 1 < c1.size() && !planted; ++j) {
    auto it = std::upper_bound(
        c0.begin(), c0.end(), c1[j - 1].key,
        [](Key k, const Item& item) { return k < item.key; });
    if (it != c0.end() && it->key < c1[j + 1].key) {
      c1[j].key = it->key;
      planted = true;
    }
  }
  ASSERT_TRUE(planted);
  RewriteChunkAndReseal(ckpt, "shard-1.dat", c1);
  ConcurrentPMA single;
  ExpectRefusedAndUsable(dir.path(), &single);
  ShardedPMA fleet;
  ExpectRefusedAndUsable(dir.path(), &fleet);
}

// A failed storage allocation returns ResourceExhausted and leaves the
// target empty and usable; a fleet is all or nothing.
TEST_F(TornCheckpointTest, AllocationFailureLeavesTargetEmpty) {
  if (!failpoint::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  ConcurrentPMA single;
  ASSERT_TRUE(failpoint::Set("storage.create", "always"));
  Status st = persist::Restore(dir_.path(), &single, nullptr);
  failpoint::Clear("storage.create");
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted) << st.ToString();
  EXPECT_EQ(single.Size(), 0u);
  ASSERT_TRUE(persist::Restore(dir_.path(), &single, nullptr).ok());
  ExpectExactly(oracle_, &single);

  // The second shard's allocation fails after the first shard's build.
  ShardedConfig cfg;
  cfg.num_shards = 2;
  ShardedPMA fleet(cfg);
  failpoint::ClearAll();  // nth counts hits since the counters reset
  ASSERT_TRUE(failpoint::Set("storage.create", "nth:2"));
  st = persist::Restore(dir_.path(), &fleet, nullptr);
  failpoint::Clear("storage.create");
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted) << st.ToString();
  EXPECT_EQ(fleet.Size(), 0u);
  ASSERT_TRUE(persist::Restore(dir_.path(), &fleet, nullptr).ok());
  ExpectExactly(oracle_, &fleet);
}

TEST_F(TornCheckpointTest, MissingChunkRefused) {
  fs::remove(dir_.path() + "/ckpt-1/shard-0.dat");
  const uint64_t before = VerifyFailures();
  std::vector<Item> items;
  EXPECT_FALSE(persist::ReadCheckpointItems(dir_.path(), &items, nullptr).ok());
  EXPECT_GT(VerifyFailures(), before);
}

}  // namespace
}  // namespace cpma
