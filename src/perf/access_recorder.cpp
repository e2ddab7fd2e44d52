#include "exastp/perf/access_recorder.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "exastp/perf/cachesim.h"

namespace exastp {

void AccessRecorder::attach(CacheSim& sim) {
  sim_ = &sim;
  std::vector<std::pair<std::uint64_t, std::uintptr_t>> order;
  for (const auto& [start, learned] : bytes_)
    order.emplace_back(learned.first, start);
  std::sort(order.begin(), order.end());
  layout_.clear();
  for (const auto& [first, start] : order) place(start, bytes_.at(start).end);
}

void AccessRecorder::touch(const void* p, std::size_t bytes, bool demand) {
  if (bytes == 0) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t end = begin + bytes;
  if (sim_ == nullptr) {
    learn(begin, end);
    return;
  }
  // Translate piece by piece: through the interval that holds it, or as a
  // newly placed interval for bytes not seen before.
  std::uintptr_t at = begin;
  auto next = layout_.upper_bound(at);
  if (next != layout_.begin() && std::prev(next)->second.end > at) --next;
  while (at < end) {
    std::uintptr_t stop;
    std::uint64_t address;
    if (next != layout_.end() && next->first <= at) {
      stop = std::min(end, next->second.end);
      address = next->second.address + (at - next->first);
      ++next;
    } else {
      stop = next != layout_.end() ? std::min(end, next->first) : end;
      learn(at, stop);
      address = place(at, stop);
    }
    if (demand)
      sim_->access_strided(address, 1, stop - at, 0);
    else
      sim_->access(address, stop - at);
    at = stop;
  }
}

void AccessRecorder::learn(std::uintptr_t begin, std::uintptr_t end) {
  const std::uint64_t now = touches_++;
  auto next = bytes_.upper_bound(begin);
  if (next != bytes_.begin()) {
    const auto prev = std::prev(next);
    if (prev->second.end >= end) return;
    if (prev->second.end >= begin) next = prev;
  }
  std::uintptr_t lo = begin, hi = end;
  std::uint64_t first = now;
  while (next != bytes_.end() && next->first <= hi) {
    lo = std::min(lo, next->first);
    hi = std::max(hi, next->second.end);
    first = std::min(first, next->second.first);
    next = bytes_.erase(next);
  }
  bytes_.emplace(lo, Learned{hi, first});
}

std::uint64_t AccessRecorder::place(std::uintptr_t begin,
                                    std::uintptr_t end) {
  const std::uint64_t line = static_cast<std::uint64_t>(sim_->line_bytes());
  const std::uint64_t address = next_line_ * line + begin % line;
  next_line_ += (begin % line + (end - begin) + line - 1) / line;
  layout_.emplace(begin, Placed{end, address});
  return address;
}

std::size_t AccessRecorder::distinct_bytes() const {
  std::size_t total = 0;
  for (const auto& [start, learned] : bytes_) total += learned.end - start;
  return total;
}

std::size_t AccessRecorder::distinct_bytes_in(const void* p,
                                              std::size_t bytes) const {
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t end = begin + bytes;
  std::size_t total = 0;
  auto it = bytes_.upper_bound(begin);
  if (it != bytes_.begin()) --it;
  for (; it != bytes_.end() && it->first < end; ++it) {
    const std::uintptr_t lo = std::max(it->first, begin);
    const std::uintptr_t hi = std::min(it->second.end, end);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

}  // namespace exastp
