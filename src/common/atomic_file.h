// Whole-file replacement that a concurrent reader never sees half-done:
// write a sibling temp file, then rename it over the target. The autotune
// and balance tables are saved back by every run that names them, and
// ensemble pool jobs share those paths.
//
// Atomic replacement alone still loses updates when two jobs each load a
// table, add their own entries and save it: the last rename wins. A
// read-merge-write therefore holds the path's process-wide lock
// (file_lock) from the load to the rename. Writers in other processes are
// not excluded.
#pragma once

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>

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
/// path share it). Hold it across a load, modify and write_file_atomically
/// of one file so that concurrent jobs of this process keep each other's
/// entries.
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

}  // namespace exastp
