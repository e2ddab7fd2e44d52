// Checks for the file readers (read_gallery_records,
// read_receiver_records, BalanceTable::load_file), shared by test_service,
// test_io and test_lts:
//   * fuzz_stream: a seeded mutational fuzz in ConfigFuzz's style
//     (test_config.cpp). Single-byte flips and truncations of one valid
//     file are written to disk and read back; every read either returns
//     (and passes the caller's bound on what it returned) or throws
//     std::invalid_argument naming the path;
//   * peak_rss_growth_mib: how far one read raises the peak resident set,
//     measured in a forked child so earlier tests' peaks do not hide it.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <typeinfo>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace exastp::stream_fuzz {

/// The bytes of a file.
inline std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

inline void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Runs `mutants` seeded mutants of `stream` through `read(path, bytes)`,
/// which reads the file at `path` (holding `bytes`) and checks what it
/// returned. A quarter of the mutants are truncations, the rest flip one
/// byte by a random nonzero mask. Both outcomes must occur.
template <class Read>
void fuzz_stream(const std::string& stream, const std::string& path,
                 Read read, int mutants = 10000) {
  std::mt19937 rng(20261018);
  int returned = 0, rejected = 0;
  for (int v = 0; v < mutants; ++v) {
    std::string bytes = stream;
    if (rng() % 4 == 0)
      bytes.resize(rng() % bytes.size());
    else
      bytes[rng() % bytes.size()] ^= static_cast<char>(1 + rng() % 255);
    write_bytes(path, bytes);
    try {
      read(path, bytes);
      ++returned;
    } catch (const std::invalid_argument& e) {
      ++rejected;
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << "mutant " << v << ": the error does not name the file: "
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << v << ": unexpected " << typeid(e).name()
                    << ": " << e.what();
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(returned, 0);
  EXPECT_GT(rejected, 0);
}

/// Runs `fn` in a forked child and returns how far it raised the child's
/// peak resident set (getrusage's ru_maxrss), in MiB, or -1 when `fn`
/// returned false or threw. A forked child's peak starts at its resident
/// set at the fork, so the growth is this call's alone.
template <class Fn>
long peak_rss_growth_mib(Fn fn) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  const pid_t child = ::fork();
  if (child < 0) return -1;
  if (child == 0) {
    ::close(fds[0]);
    long growth = -1;
    try {
      rusage before{}, after{};
      ::getrusage(RUSAGE_SELF, &before);
      if (fn()) {
        ::getrusage(RUSAGE_SELF, &after);
        growth = (after.ru_maxrss - before.ru_maxrss) / 1024;
      }
    } catch (...) {
    }
    const bool sent = ::write(fds[1], &growth, sizeof growth) ==
                      static_cast<ssize_t>(sizeof growth);
    std::_Exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  long growth = -1;
  if (::read(fds[0], &growth, sizeof growth) !=
      static_cast<ssize_t>(sizeof growth))
    growth = -1;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(child, &status, 0);
  return growth;
}

}  // namespace exastp::stream_fuzz
