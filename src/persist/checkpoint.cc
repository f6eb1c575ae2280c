#include "persist/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/failpoint.h"
#include "common/hotpath/crc32c.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/snapshot.h"
#include "sharded/sharded_pma.h"

namespace cpma {
namespace persist {

namespace {

constexpr char kMagic[8] = {'C', 'P', 'M', 'A', 'C', 'K', 'P', 'T'};
constexpr size_t kRecordItems = 4096;  // 64 KiB payloads

Status ErrnoStatus(const char* what, const std::string& path) {
  return Status::Internal(std::string(what) + " " + path + ": " +
                          std::strerror(errno));
}

Status Failpoint(const char* site) {
  return Status::Internal(std::string("failpoint: ") + site);
}

/// Any verification mismatch funnels through here so
/// restore_verify_failures counts every refused checkpoint artifact.
Status VerifyFail(std::string msg) {
  Counters().restore_verify_failures.fetch_add(1, std::memory_order_relaxed);
  return Status::Internal(std::move(msg));
}

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);  // little-endian on every supported target
  out->append(b, 4);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

/// Streams one chunk file: header + CRC-framed item records, keeping a
/// running whole-file CRC for the manifest. All writes go through the
/// EINTR-safe WriteFully and are fronted by the persist.chunk_write /
/// persist.chunk_fsync failpoints (each a `!crash` site for the
/// crash-recovery harness).
class ChunkWriter {
 public:
  Status Open(const std::string& path, uint32_t shard_index) {
    path_ = path;
    fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (fd_ < 0) return ErrnoStatus("open", path);
    std::string header(kMagic, sizeof(kMagic));
    PutU32(&header, kFormatVersion);
    PutU32(&header, shard_index);
    return WriteRaw(header);
  }

  Status Add(const Item& it) {
    buf_.push_back(it);
    if (buf_.size() >= kRecordItems) return FlushRecord();
    return Status::OK();
  }

  /// Flush the tail record, fsync and close. Returns bytes/CRC for the
  /// manifest line.
  Status Finish(uint64_t* bytes, uint32_t* crc) {
    Status st = FlushRecord();
    if (!st.ok()) return st;
    if (CPMA_FAILPOINT("persist.chunk_fsync")) {
      return Failpoint("persist.chunk_fsync");
    }
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
    if (::close(fd_) != 0) {
      fd_ = -1;
      return ErrnoStatus("close", path_);
    }
    fd_ = -1;
    *bytes = bytes_;
    *crc = crc_;
    return Status::OK();
  }

  ~ChunkWriter() {
    if (fd_ >= 0) ::close(fd_);
  }

 private:
  Status FlushRecord() {
    if (buf_.empty()) return Status::OK();
    const size_t len = buf_.size() * sizeof(Item);
    std::string rec;
    rec.reserve(8 + len);
    PutU32(&rec, static_cast<uint32_t>(len));
    PutU32(&rec, hotpath::Crc32c(buf_.data(), len));
    rec.append(reinterpret_cast<const char*>(buf_.data()), len);
    buf_.clear();
    return WriteRaw(rec);
  }

  Status WriteRaw(const std::string& bytes) {
    if (CPMA_FAILPOINT("persist.chunk_write")) {
      return Failpoint("persist.chunk_write");
    }
    Status st = WriteFully(fd_, bytes.data(), bytes.size());
    if (!st.ok()) return st;
    crc_ = hotpath::Crc32cExtend(crc_, bytes.data(), bytes.size());
    bytes_ += bytes.size();
    return Status::OK();
  }

  std::string path_;
  int fd_ = -1;
  std::vector<Item> buf_;
  uint64_t bytes_ = 0;
  uint32_t crc_ = 0;
};

/// write-temp -> fsync -> atomic-rename publication of a small file
/// (MANIFEST inside the staging dir, CURRENT at the root).
Status PublishFile(const std::string& dir, const std::string& name,
                   const std::string& contents, const char* write_site,
                   const char* rename_site) {
  const std::string tmp = dir + "/" + name + ".tmp";
  const std::string final_path = dir + "/" + name;
  if (CPMA_FAILPOINT(write_site)) return Failpoint(write_site);
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);
  Status st = WriteFully(fd, contents.data(), contents.size());
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoStatus("fsync", tmp);
  if (::close(fd) != 0 && st.ok()) st = ErrnoStatus("close", tmp);
  if (!st.ok()) return st;
  if (CPMA_FAILPOINT(rename_site)) return Failpoint(rename_site);
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return ErrnoStatus("rename", final_path);
  }
  return Status::OK();
}

Status ResolveDir(const CheckpointOptions& opts, std::string* dir) {
  *dir = opts.dir;
  if (dir->empty()) {
    const char* env = std::getenv("CPMA_CHECKPOINT_DIR");
    if (env != nullptr) *dir = env;
  }
  if (dir->empty()) {
    return Status::InvalidArgument(
        "checkpoint dir not set (CheckpointOptions::dir or "
        "CPMA_CHECKPOINT_DIR)");
  }
  return Status::OK();
}

bool ParseSeq(const char* name, uint64_t* seq) {
  // Accepts exactly "ckpt-<decimal>".
  if (std::strncmp(name, "ckpt-", 5) != 0) return false;
  const char* p = name + 5;
  if (*p == '\0') return false;
  uint64_t v = 0;
  for (; *p; ++p) {
    if (*p < '0' || *p > '9') return false;
    v = v * 10 + static_cast<uint64_t>(*p - '0');
  }
  *seq = v;
  return true;
}

/// Best-effort recursive removal of one checkpoint/staging directory
/// (flat layout: files only).
void RemoveDirTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (struct dirent* e = ::readdir(d)) {
      if (std::strcmp(e->d_name, ".") == 0 || std::strcmp(e->d_name, "..") == 0)
        continue;
      ::unlink((dir + "/" + e->d_name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

/// Drop completed checkpoints beyond the newest `keep` plus any stale
/// staging directories. Best effort by design: a GC failure must never
/// fail (or crash after) an already-published checkpoint, except via the
/// explicit persist.gc_unlink crash site.
void GarbageCollect(const std::string& root, uint64_t current_seq,
                    size_t keep) {
  std::vector<uint64_t> seqs;
  std::vector<std::string> stale_tmp;
  DIR* d = ::opendir(root.c_str());
  if (d == nullptr) return;
  while (struct dirent* e = ::readdir(d)) {
    uint64_t seq = 0;
    if (ParseSeq(e->d_name, &seq)) {
      if (seq != current_seq) seqs.push_back(seq);
    } else if (std::strncmp(e->d_name, "ckpt-", 5) == 0 &&
               std::strstr(e->d_name, ".tmp") != nullptr) {
      stale_tmp.push_back(root + "/" + e->d_name);
    }
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  // current_seq occupies one keep slot; older ones fill the rest.
  const size_t keep_old = keep > 0 ? keep - 1 : 0;
  const size_t drop = seqs.size() > keep_old ? seqs.size() - keep_old : 0;
  for (size_t i = 0; i < drop; ++i) {
    if (CPMA_FAILPOINT("persist.gc_unlink")) return;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ckpt-%" PRIu64, seqs[i]);
    RemoveDirTree(root + "/" + buf);
  }
  for (const std::string& tmp : stale_tmp) {
    if (CPMA_FAILPOINT("persist.gc_unlink")) return;
    RemoveDirTree(tmp);
  }
}

uint64_t NextSeq(const std::string& root) {
  uint64_t max_seq = 0;
  DIR* d = ::opendir(root.c_str());
  if (d != nullptr) {
    while (struct dirent* e = ::readdir(d)) {
      uint64_t seq = 0;
      // Staging dirs ("ckpt-<n>.tmp") fail ParseSeq, so a crashed
      // writer's leftovers never advance the sequence.
      if (ParseSeq(e->d_name, &seq)) max_seq = std::max(max_seq, seq);
    }
    ::closedir(d);
  }
  return max_seq + 1;
}

struct ChunkMeta {
  std::string file;
  uint64_t bytes = 0;
  uint32_t crc = 0;
};

/// The shared writer core: `shards` item streams -> one published
/// checkpoint. Each stream is a callable invoking its callback per item
/// in the order the chunk should store them.
using ItemStream = std::function<void(const std::function<void(const Item&)>&)>;

Status WriteCheckpointImpl(const std::vector<ItemStream>& streams,
                           const CheckpointOptions& opts,
                           CheckpointInfo* info) {
  std::string root;
  Status st = ResolveDir(opts, &root);
  if (!st.ok()) return st;
  if (::mkdir(root.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoStatus("mkdir", root);
  }

  const uint64_t seq = NextSeq(root);
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%" PRIu64, seq);
  const std::string final_dir = root + "/" + name;
  const std::string tmp_dir = final_dir + ".tmp";
  RemoveDirTree(tmp_dir);  // stale staging from a crashed writer
  if (::mkdir(tmp_dir.c_str(), 0755) != 0) return ErrnoStatus("mkdir", tmp_dir);

  // 1. Chunk files, one per stream, inside the staging dir.
  uint64_t total_items = 0;
  uint64_t total_bytes = 0;
  std::vector<ChunkMeta> chunks;
  for (size_t s = 0; s < streams.size(); ++s) {
    char file[32];
    std::snprintf(file, sizeof(file), "shard-%zu.dat", s);
    ChunkWriter w;
    st = w.Open(tmp_dir + "/" + file, static_cast<uint32_t>(s));
    if (!st.ok()) return st;
    Status add_st;
    streams[s]([&](const Item& it) {
      ++total_items;
      if (add_st.ok()) add_st = w.Add(it);
    });
    if (!add_st.ok()) return add_st;
    ChunkMeta meta;
    meta.file = file;
    st = w.Finish(&meta.bytes, &meta.crc);
    if (!st.ok()) return st;
    total_bytes += meta.bytes;
    chunks.push_back(std::move(meta));
  }

  // 2. Self-checksummed MANIFEST, published atomically inside staging.
  std::string manifest;
  char line[128];
  std::snprintf(line, sizeof(line), "cpma-checkpoint %u\n", kFormatVersion);
  manifest += line;
  std::snprintf(line, sizeof(line), "seq %" PRIu64 "\n", seq);
  manifest += line;
  std::snprintf(line, sizeof(line), "app_stamp %" PRIu64 "\n", opts.app_stamp);
  manifest += line;
  std::snprintf(line, sizeof(line), "shards %zu\n", streams.size());
  manifest += line;
  std::snprintf(line, sizeof(line), "items %" PRIu64 "\n", total_items);
  manifest += line;
  for (const ChunkMeta& c : chunks) {
    std::snprintf(line, sizeof(line), "chunk %s %" PRIu64 " %08x\n",
                  c.file.c_str(), c.bytes, c.crc);
    manifest += line;
  }
  std::snprintf(line, sizeof(line), "crc %08x\n",
                hotpath::Crc32c(manifest.data(), manifest.size()));
  manifest += line;
  st = PublishFile(tmp_dir, "MANIFEST", manifest, "persist.manifest_write",
                   "persist.manifest_rename");
  if (!st.ok()) return st;
  st = FsyncDir(tmp_dir);
  if (!st.ok()) return st;

  // 3. Make the checkpoint directory appear, durably.
  if (CPMA_FAILPOINT("persist.manifest_rename")) {
    return Failpoint("persist.manifest_rename");
  }
  if (::rename(tmp_dir.c_str(), final_dir.c_str()) != 0) {
    return ErrnoStatus("rename", final_dir);
  }
  if (CPMA_FAILPOINT("persist.dir_fsync")) return Failpoint("persist.dir_fsync");
  st = FsyncDir(root);
  if (!st.ok()) return st;

  // 4. Flip CURRENT. Until this rename lands, CURRENT still names the
  // previous checkpoint, so a crash anywhere above loses nothing.
  st = PublishFile(root, "CURRENT", std::string(name) + "\n",
                   "persist.current_write", "persist.current_rename");
  if (!st.ok()) return st;
  st = FsyncDir(root);
  if (!st.ok()) return st;

  Counters().checkpoints_written.fetch_add(1, std::memory_order_relaxed);
  Counters().checkpoint_bytes.fetch_add(total_bytes + manifest.size(),
                                        std::memory_order_relaxed);
  GarbageCollect(root, seq, opts.keep);

  if (info != nullptr) {
    info->seq = seq;
    info->app_stamp = opts.app_stamp;
    info->items = total_items;
    info->shards = streams.size();
    info->path = final_dir;
  }
  return Status::OK();
}

struct Manifest {
  CheckpointInfo info;
  std::vector<ChunkMeta> chunks;
};

Status ReadWholeFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat sb;
  if (::fstat(fd, &sb) != 0) {
    Status st = ErrnoStatus("fstat", path);
    ::close(fd);
    return st;
  }
  out->resize(static_cast<size_t>(sb.st_size));
  Status st = sb.st_size > 0 ? ReadFully(fd, &(*out)[0], out->size())
                             : Status::OK();
  ::close(fd);
  return st;
}

/// Resolve CURRENT and fully verify the manifest it names. Everything
/// that can be wrong with the pointer chain — unreadable files, bad
/// magic, CRC mismatch, malformed or inconsistent fields — refuses the
/// checkpoint through VerifyFail.
Status LoadManifest(const std::string& root, Manifest* m) {
  std::string current;
  {
    int fd = ::open((root + "/CURRENT").c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) {
        return Status::KeyNotFound("no checkpoint under " + root);
      }
      return ErrnoStatus("open", root + "/CURRENT");
    }
    ::close(fd);
  }
  Status st = ReadWholeFile(root + "/CURRENT", &current);
  if (!st.ok()) return st;
  while (!current.empty() && (current.back() == '\n' || current.back() == '\r'))
    current.pop_back();
  uint64_t seq = 0;
  if (!ParseSeq(current.c_str(), &seq)) {
    return VerifyFail("CURRENT is garbage: \"" + current + "\"");
  }
  const std::string dir = root + "/" + current;

  std::string text;
  st = ReadWholeFile(dir + "/MANIFEST", &text);
  if (!st.ok()) {
    Counters().restore_verify_failures.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

  // The last line must be "crc <hex>" over every byte before it.
  size_t crc_line = text.rfind("crc ");
  if (crc_line == std::string::npos ||
      (crc_line != 0 && text[crc_line - 1] != '\n') ||
      text.find('\n', crc_line) != text.size() - 1) {
    return VerifyFail("MANIFEST missing trailing crc line: " + dir);
  }
  uint32_t stored = 0;
  if (std::sscanf(text.c_str() + crc_line, "crc %x", &stored) != 1) {
    return VerifyFail("MANIFEST crc line malformed: " + dir);
  }
  const uint32_t actual = hotpath::Crc32c(text.data(), crc_line);
  if (actual != stored) {
    return VerifyFail("MANIFEST checksum mismatch: " + dir);
  }

  m->info = CheckpointInfo();
  m->info.path = dir;
  m->chunks.clear();
  uint64_t version = 0, shards = 0;
  bool saw_magic = false;
  size_t pos = 0;
  while (pos < crc_line) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos || eol > crc_line) eol = crc_line;
    const std::string l = text.substr(pos, eol - pos);
    pos = eol + 1;
    char fname[64];
    uint64_t v = 0;
    uint32_t crc = 0;
    if (std::sscanf(l.c_str(), "cpma-checkpoint %" SCNu64, &version) == 1) {
      saw_magic = true;
    } else if (std::sscanf(l.c_str(), "seq %" SCNu64, &v) == 1) {
      m->info.seq = v;
    } else if (std::sscanf(l.c_str(), "app_stamp %" SCNu64, &v) == 1) {
      m->info.app_stamp = v;
    } else if (std::sscanf(l.c_str(), "shards %" SCNu64, &shards) == 1) {
      m->info.shards = static_cast<size_t>(shards);
    } else if (std::sscanf(l.c_str(), "items %" SCNu64, &v) == 1) {
      m->info.items = v;
    } else if (std::sscanf(l.c_str(), "chunk %63s %" SCNu64 " %x", fname, &v,
                           &crc) == 3) {
      ChunkMeta c;
      c.file = fname;
      c.bytes = v;
      c.crc = crc;
      m->chunks.push_back(std::move(c));
    } else {
      return VerifyFail("MANIFEST unknown line \"" + l + "\": " + dir);
    }
  }
  if (!saw_magic || version != kFormatVersion) {
    return VerifyFail("MANIFEST bad format version: " + dir);
  }
  if (m->info.seq != seq || m->chunks.size() != m->info.shards) {
    return VerifyFail("MANIFEST inconsistent with CURRENT: " + dir);
  }
  return Status::OK();
}

Status ReadChunk(const std::string& dir, const ChunkMeta& meta, size_t index,
                 std::vector<Item>* items) {
  const std::string path = dir + "/" + meta.file;
  std::string data;
  Status st = ReadWholeFile(path, &data);
  if (!st.ok()) {
    Counters().restore_verify_failures.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  if (data.size() != meta.bytes) {
    return VerifyFail("chunk size mismatch (torn write?): " + path);
  }
  if (hotpath::Crc32c(data.data(), data.size()) != meta.crc) {
    return VerifyFail("chunk checksum mismatch: " + path);
  }
  const size_t header = sizeof(kMagic) + 8;
  if (data.size() < header || std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return VerifyFail("chunk bad magic: " + path);
  }
  if (GetU32(data.data() + sizeof(kMagic)) != kFormatVersion) {
    return VerifyFail("chunk bad format version: " + path);
  }
  if (GetU32(data.data() + sizeof(kMagic) + 4) != index) {
    return VerifyFail("chunk shard index mismatch: " + path);
  }
  const size_t first = items->size();
  size_t pos = header;
  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      return VerifyFail("chunk truncated record header: " + path);
    }
    const uint32_t len = GetU32(data.data() + pos);
    const uint32_t crc = GetU32(data.data() + pos + 4);
    pos += 8;
    if (len == 0 || len % sizeof(Item) != 0 || data.size() - pos < len) {
      return VerifyFail("chunk bad record length: " + path);
    }
    if (hotpath::Crc32c(data.data() + pos, len) != crc) {
      return VerifyFail("chunk record checksum mismatch: " + path);
    }
    const size_t n = len / sizeof(Item);
    const size_t base = items->size();
    items->resize(base + n);
    std::memcpy(items->data() + base, data.data() + pos, len);
    pos += len;
    // The payload is outside input even with every CRC intact: a
    // chunk's keys must ascend strictly. Checked per record, while the
    // record is still in cache.
    const Item* it = items->data();
    bool ascending = true;
    for (size_t i = std::max(base, first + 1); i < base + n; ++i) {
      ascending &= it[i].key > it[i - 1].key;
    }
    if (!ascending) {
      return VerifyFail("chunk keys not strictly ascending: " + path);
    }
  }
  // Ascending keys leave only the last one able to exceed the domain.
  if (items->size() > first && items->back().key > kKeyMax) {
    return VerifyFail("chunk holds a key outside the domain: " + path);
  }
  return Status::OK();
}

/// Read -> validate -> load: the verified items, ordered into one
/// strictly ascending run, bulk-loaded into the empty target. The
/// chunks of a hash-sharded checkpoint interleave and are sorted first;
/// no key may appear in two chunks.
template <typename Map>
Status RestoreInto(const std::string& dir, Map* map, CheckpointInfo* info) {
  std::vector<Item> items;
  CheckpointInfo local;
  Status st = ReadCheckpointItems(dir, &items, &local);
  if (!st.ok()) return st;
  const auto not_ascending = [](const Item& a, const Item& b) {
    return a.key >= b.key;
  };
  if (std::adjacent_find(items.begin(), items.end(), not_ascending) !=
      items.end()) {
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.key < b.key; });
    if (std::adjacent_find(items.begin(), items.end(), not_ascending) !=
        items.end()) {
      return VerifyFail("a key appears in two chunks: " + local.path);
    }
  }
  st = map->LoadSorted(items.data(), items.size());
  if (!st.ok()) return st;
  Counters().restores.fetch_add(1, std::memory_order_relaxed);
  if (info != nullptr) *info = local;
  return Status::OK();
}

}  // namespace

PersistCounters& Counters() {
  static PersistCounters counters;
  return counters;
}

Status WriteCheckpoint(const PMASnapshot& snap, const CheckpointOptions& opts,
                       CheckpointInfo* info) {
  std::vector<ItemStream> streams;
  streams.push_back([&snap](const std::function<void(const Item&)>& emit) {
    snap.Scan(kKeyMin, kKeyMax, [&emit](Key k, Value v) {
      emit(Item{k, v});
      return true;
    });
  });
  return WriteCheckpointImpl(streams, opts, info);
}

Status WriteCheckpoint(const ShardedSnapshot& snap,
                       const CheckpointOptions& opts, CheckpointInfo* info) {
  std::vector<ItemStream> streams;
  for (size_t s = 0; s < snap.num_shards(); ++s) {
    const PMASnapshot& shard = snap.shard_snapshot(s);
    streams.push_back([&shard](const std::function<void(const Item&)>& emit) {
      shard.Scan(kKeyMin, kKeyMax, [&emit](Key k, Value v) {
        emit(Item{k, v});
        return true;
      });
    });
  }
  return WriteCheckpointImpl(streams, opts, info);
}

Status Checkpoint(const ConcurrentPMA& pma, const CheckpointOptions& opts,
                  CheckpointInfo* info) {
  std::unique_ptr<PMASnapshot> snap = pma.Snapshot();
  return WriteCheckpoint(*snap, opts, info);
}

Status Checkpoint(ShardedPMA& pma, const CheckpointOptions& opts,
                  CheckpointInfo* info) {
  std::unique_ptr<ShardedSnapshot> snap = pma.Snapshot();
  return WriteCheckpoint(*snap, opts, info);
}

Status LatestCheckpoint(const std::string& dir, CheckpointInfo* info) {
  std::string root = dir;
  if (root.empty()) {
    CheckpointOptions opts;
    Status st = ResolveDir(opts, &root);
    if (!st.ok()) return st;
  }
  Manifest m;
  Status st = LoadManifest(root, &m);
  if (!st.ok()) return st;
  if (info != nullptr) *info = m.info;
  return Status::OK();
}

Status ReadCheckpointItems(const std::string& dir, std::vector<Item>* items,
                           CheckpointInfo* info) {
  std::string root = dir;
  if (root.empty()) {
    CheckpointOptions opts;
    Status st = ResolveDir(opts, &root);
    if (!st.ok()) return st;
  }
  Manifest m;
  Status st = LoadManifest(root, &m);
  if (!st.ok()) return st;
  items->clear();
  items->reserve(m.info.items);
  for (size_t c = 0; c < m.chunks.size(); ++c) {
    st = ReadChunk(m.info.path, m.chunks[c], c, items);
    if (!st.ok()) return st;
  }
  if (items->size() != m.info.items) {
    return VerifyFail("item count mismatch vs manifest: " + m.info.path);
  }
  if (info != nullptr) *info = m.info;
  return Status::OK();
}

Status Restore(const std::string& dir, ConcurrentPMA* pma,
               CheckpointInfo* info) {
  return RestoreInto(dir, pma, info);
}

Status Restore(const std::string& dir, ShardedPMA* pma, CheckpointInfo* info) {
  return RestoreInto(dir, pma, info);
}

}  // namespace persist
}  // namespace cpma
