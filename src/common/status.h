// Status: lightweight error propagation without exceptions.
//
// Follows the Arrow/RocksDB convention of returning a Status object from
// fallible operations instead of throwing. Internal invariant violations
// use CPMA_CHECK (assert-like, always on).

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace cpma {

/// Result of a fallible operation. Cheap to copy when OK (no allocation).
class Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kKeyAlreadyExists,
    kKeyNotFound,
    kInvalidArgument,
    kResourceExhausted,
    kInternal,
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status KeyAlreadyExists(std::string msg = "") {
    return Status(Code::kKeyAlreadyExists, std::move(msg));
  }
  static Status KeyNotFound(std::string msg = "") {
    return Status(Code::kKeyNotFound, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg = "") {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg = "") {
    return Status(Code::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsKeyAlreadyExists() const { return code_ == Code::kKeyAlreadyExists; }
  bool IsKeyNotFound() const { return code_ == Code::kKeyNotFound; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    switch (code_) {
      case Code::kOk: return "OK";
      case Code::kKeyAlreadyExists: return "KeyAlreadyExists: " + message_;
      case Code::kKeyNotFound: return "KeyNotFound: " + message_;
      case Code::kInvalidArgument: return "InvalidArgument: " + message_;
      case Code::kResourceExhausted: return "ResourceExhausted: " + message_;
      case Code::kInternal: return "Internal: " + message_;
    }
    return "Unknown";
  }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

// ------------------------------------------------------------------ io
// EINTR-safe syscall wrappers (ISSUE 9 satellite). Every read/write loop
// in the tree goes through these instead of a bare syscall: short
// transfers are resumed, EINTR retries, and a real failure comes back as
// a Status carrying the errno text — so a durability-path error report
// names the failing call instead of surfacing as a mystery CHECK later.

/// Write all `n` bytes of `buf` to `fd`, retrying short writes and EINTR.
Status WriteFully(int fd, const void* buf, size_t n);

/// Read exactly `n` bytes into `buf`, retrying short reads and EINTR.
/// EOF before `n` bytes is an error (kInternal, "short read") — callers
/// reading framed formats want truncation to be loud.
Status ReadFully(int fd, void* buf, size_t n);

/// pread variant of ReadFully.
Status PreadFully(int fd, void* buf, size_t n, uint64_t off);

/// fsync the directory itself so a rename inside it is durable (the
/// write-temp -> fsync -> rename protocol's last step).
Status FsyncDir(const std::string& dir);

/// Terminal handler behind CPMA_CHECK/CPMA_CHECK_MSG (status.cc). Prints
/// the failed condition, optional detail message, file:line, the calling
/// thread's errno (checks often guard syscalls, and the raw abort used to
/// discard the reason), and the most recent failpoint that fired on this
/// thread — so a crash inside a fault-injection run is attributable to
/// the injected fault rather than mistaken for a real invariant break.
[[noreturn]] void CheckFailed(const char* condition, const char* message,
                              const char* file, int line);

}  // namespace cpma

/// Always-on invariant check; aborts with location info on failure.
#define CPMA_CHECK(cond)                                        \
  do {                                                          \
    if (!(cond)) {                                              \
      ::cpma::CheckFailed(#cond, nullptr, __FILE__, __LINE__);  \
    }                                                           \
  } while (0)

#define CPMA_CHECK_MSG(cond, msg)                               \
  do {                                                          \
    if (!(cond)) {                                              \
      ::cpma::CheckFailed(#cond, msg, __FILE__, __LINE__);      \
    }                                                           \
  } while (0)
