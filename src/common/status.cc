#include "common/status.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"

namespace cpma {

namespace {

// One errno-carrying Status for every wrapper below; `op` names the
// syscall so persist-layer errors read "write failed: ..." verbatim.
Status ErrnoStatus(const char* op, int err) {
  return Status::Internal(std::string(op) + " failed: errno " +
                          std::to_string(err) + " (" + std::strerror(err) +
                          ")");
}

}  // namespace

Status WriteFully(int fd, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", errno);
    }
    if (w == 0) return Status::Internal("write returned 0");
    p += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

Status ReadFully(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read", errno);
    }
    if (r == 0) return Status::Internal("short read: unexpected EOF");
    p += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

Status PreadFully(int fd, void* buf, size_t n, uint64_t off) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", errno);
    }
    if (r == 0) return Status::Internal("short pread: unexpected EOF");
    p += r;
    off += static_cast<uint64_t>(r);
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  int fd;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return ErrnoStatus("open(dir)", errno);
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  const int err = errno;
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync(dir)", err);
  return Status::OK();
}

void CheckFailed(const char* condition, const char* message, const char* file,
                 int line) {
  // Capture errno before any stdio call can clobber it.
  const int err = errno;
  if (message != nullptr) {
    std::fprintf(stderr, "CPMA_CHECK failed: %s (%s) at %s:%d\n", condition,
                 message, file, line);
  } else {
    std::fprintf(stderr, "CPMA_CHECK failed: %s at %s:%d\n", condition, file,
                 line);
  }
  if (err != 0) {
    std::fprintf(stderr, "  errno: %d (%s)\n", err, std::strerror(err));
  }
  const char* fp = failpoint::LastFired();
  if (fp != nullptr) {
    std::fprintf(stderr, "  last failpoint fired on this thread: %s\n", fp);
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace cpma
