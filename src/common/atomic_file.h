// Whole-file replacement that a concurrent reader never sees half-done:
// write a sibling temp file, then rename it over the target. The balance
// table is saved back by every run that names it, and ensemble pool jobs
// share its path.
//
// Atomic replacement alone still loses updates when two writers each load
// a table, add their own entries and save it: the last rename wins. A
// read-merge-write therefore holds the path's FileLock from the load to
// the rename: the path's process-wide mutex (file_lock), which orders the
// jobs of one process, and an advisory flock on the sibling file
// `<path>.lock`, which orders processes.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "exastp/common/check.h"

namespace exastp {

/// Replaces `path` with `contents`; throws naming `what` when it cannot.
inline void write_file_atomically(const std::string& path,
                                  const std::string& contents,
                                  const std::string& what) {
  static std::atomic<unsigned long> counter{0};  // one temp file per call
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "." +
                          std::to_string(counter++);
  std::ofstream out(tmp, std::ios::binary);
  out << contents;
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    EXASTP_FAIL("cannot write " + what + ": " + path);
  }
}

/// The process-wide lock of `path` (spellings that name the same absolute
/// path share it); FileLock below holds it.
inline std::mutex& file_lock(const std::string& path) {
  static std::mutex registry;
  static std::map<std::string, std::unique_ptr<std::mutex>> locks;
  std::error_code ec;
  const std::filesystem::path absolute = std::filesystem::absolute(path, ec);
  const std::string key = ec ? path : absolute.lexically_normal().string();
  const std::lock_guard<std::mutex> guard(registry);
  std::unique_ptr<std::mutex>& lock = locks[key];
  if (!lock) lock = std::make_unique<std::mutex>();
  return *lock;
}

/// Excludes every other writer of `path`, in this process and in others,
/// for its lifetime: it takes file_lock(path), then an exclusive flock on
/// `<path>.lock`. The lock file is created when missing and never removed
/// (removing it would let a late writer lock a new file while an earlier
/// one still holds the old). Throws when the lock file cannot be opened.
class FileLock {
 public:
  explicit FileLock(const std::string& path) : guard_(file_lock(path)) {
    const std::string lock = path + ".lock";
    fd_ = ::open(lock.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) EXASTP_FAIL("cannot open lock file " + lock);
    while (::flock(fd_, LOCK_EX) != 0) {
      if (errno == EINTR) continue;
      ::close(fd_);
      EXASTP_FAIL("cannot lock " + lock);
    }
  }
  ~FileLock() {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  std::lock_guard<std::mutex> guard_;
  int fd_ = -1;
};

}  // namespace exastp
