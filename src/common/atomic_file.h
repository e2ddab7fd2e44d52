// Whole-file replacement that a concurrent reader never sees half-done:
// write a sibling temp file, then rename it over the target. The autotune
// and balance tables are saved back by every run that names them, and
// ensemble pool jobs share those paths.
#pragma once

#include <atomic>
#include <cstdio>
#include <fstream>
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

}  // namespace exastp
