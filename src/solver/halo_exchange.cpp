#include "exastp/solver/halo_exchange.h"

#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "exastp/common/check.h"

namespace exastp {
namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LocalLinkSet::LocalLinkSet(const Partition& partition,
                           std::size_t trace_size, int only_rank)
    : trace_size_(trace_size), num_shards_(partition.num_shards()) {
  EXASTP_CHECK_MSG(trace_size_ > 0, "halo exchange needs a trace size");
  for (int s = 0; s < partition.num_shards(); ++s) {
    if (only_rank >= 0 && partition.rank_of(s) != only_rank) continue;
    for (const HaloPlan& plan : partition.subdomain(s).halos) {
      if (only_rank >= 0 && partition.rank_of(plan.src_shard) != only_rank)
        continue;
      Link link;
      link.dst_shard = s;
      link.src_shard = plan.src_shard;
      link.src_offsets = source_trace_offsets(partition, plan, trace_size_);
      link.dst_offset = halo_trace_offset(partition.subdomain(s).grid, plan,
                                          trace_size_);
      link.cross_rank =
          partition.rank_of(s) != partition.rank_of(plan.src_shard);
      payload_bytes_ += plan.src_cells.size() * trace_size_ * sizeof(double);
      links_.push_back(std::move(link));
    }
  }
}

void LocalLinkSet::begin_step(
    const std::vector<std::vector<ExchangeField>>& fields,
    std::int64_t latency_ns) {
  EXASTP_CHECK_MSG(fields_ == nullptr,
                   "a scheduled step is already in progress");
  fields_ = &fields;
  phases_ = static_cast<int>(fields.size());
  latency_ns_ = latency_ns;
  const std::size_t link_states =
      links_.size() * static_cast<std::size_t>(phases_);
  const std::size_t shard_states =
      static_cast<std::size_t>(num_shards_) * static_cast<std::size_t>(phases_);
  open_.assign(shard_states, 0);
  captured_.assign(link_states, 0);
  done_.assign(link_states, 0);
  deadline_ns_.assign(link_states, 0);
  if (staged_.size() < link_states) staged_.resize(link_states);
  pending_.assign(shard_states, 0);
  for (int p = 0; p < phases_; ++p) {
    if (!phase_has_fields(p)) continue;
    for (const Link& link : links_)
      ++pending_[shard_state_index(link.dst_shard, p)];
  }
}

void LocalLinkSet::stage(int link, int phase) {
  const Link& l = links_[static_cast<std::size_t>(link)];
  const std::vector<ExchangeField>& fields =
      (*fields_)[static_cast<std::size_t>(phase)];
  const std::size_t block = l.src_offsets.size() * trace_size_;
  AlignedVector& buffer = staged_[link_state_index(link, phase)];
  buffer.resize(block * fields.size());
  double* out = buffer.data();
  for (const ExchangeField& field : fields) {
    const double* src =
        field.shard_fields[static_cast<std::size_t>(l.src_shard)];
    EXASTP_CHECK_MSG(src != nullptr, "halo field without storage");
    for (const std::size_t offset : l.src_offsets) {
      std::memcpy(out, src + offset, trace_size_ * sizeof(double));
      out += trace_size_;
    }
  }
}

void LocalLinkSet::deliver_direct(int link, int phase) {
  const Link& l = links_[static_cast<std::size_t>(link)];
  for (const ExchangeField& field :
       (*fields_)[static_cast<std::size_t>(phase)]) {
    const double* src =
        field.shard_fields[static_cast<std::size_t>(l.src_shard)];
    double* dst = field.shard_fields[static_cast<std::size_t>(l.dst_shard)];
    EXASTP_CHECK_MSG(src != nullptr && dst != nullptr,
                     "halo field without storage");
    double* out = dst + l.dst_offset;
    for (const std::size_t offset : l.src_offsets) {
      std::memcpy(out, src + offset, trace_size_ * sizeof(double));
      out += trace_size_;
    }
  }
  done_[link_state_index(link, phase)] = 1;
  --pending_[shard_state_index(l.dst_shard, phase)];
}

void LocalLinkSet::deliver_staged(int link, int phase) {
  const Link& l = links_[static_cast<std::size_t>(link)];
  const std::vector<ExchangeField>& fields =
      (*fields_)[static_cast<std::size_t>(phase)];
  const AlignedVector& buffer = staged_[link_state_index(link, phase)];
  const std::size_t block = l.src_offsets.size() * trace_size_;
  EXASTP_CHECK(buffer.size() == block * fields.size());
  for (std::size_t f = 0; f < fields.size(); ++f) {
    double* dst = fields[f].shard_fields[static_cast<std::size_t>(l.dst_shard)];
    EXASTP_CHECK_MSG(dst != nullptr, "halo field without storage");
    std::memcpy(dst + l.dst_offset, buffer.data() + f * block,
                block * sizeof(double));
  }
  done_[link_state_index(link, phase)] = 1;
  --pending_[shard_state_index(l.dst_shard, phase)];
}

void LocalLinkSet::capture(int shard, int phase) {
  EXASTP_CHECK_MSG(fields_ != nullptr, "capture outside a scheduled step");
  if (!phase_has_fields(phase)) return;
  for (int i = 0; i < static_cast<int>(links_.size()); ++i) {
    const Link& l = links_[static_cast<std::size_t>(i)];
    if (l.src_shard != shard) continue;
    const std::size_t idx = link_state_index(i, phase);
    EXASTP_CHECK_MSG(captured_[idx] == 0, "link captured twice in one phase");
    captured_[idx] = 1;
    if (l.cross_rank && latency_ns_ > 0) {
      // Simulated wire: the bytes leave now (staged — the source keeps
      // computing into this field) but may not land before the deadline.
      stage(i, phase);
      deadline_ns_[idx] = steady_now_ns() + latency_ns_;
    } else if (open_[shard_state_index(l.dst_shard, phase)] != 0) {
      deliver_direct(i, phase);
    } else {
      stage(i, phase);
    }
  }
}

void LocalLinkSet::open(int shard, int phase) {
  EXASTP_CHECK_MSG(fields_ != nullptr, "open outside a scheduled step");
  const std::size_t sidx = shard_state_index(shard, phase);
  EXASTP_CHECK_MSG(open_[sidx] == 0, "phase opened twice for one shard");
  open_[sidx] = 1;
  if (!phase_has_fields(phase)) return;
  for (int i = 0; i < static_cast<int>(links_.size()); ++i) {
    const Link& l = links_[static_cast<std::size_t>(i)];
    if (l.dst_shard != shard) continue;
    const std::size_t idx = link_state_index(i, phase);
    if (captured_[idx] != 0 && done_[idx] == 0 &&
        (deadline_ns_[idx] == 0 || steady_now_ns() >= deadline_ns_[idx]))
      deliver_staged(i, phase);
  }
}

bool LocalLinkSet::delivered(int shard, int phase) const {
  if (!phase_has_fields(phase)) return true;
  return pending_[shard_state_index(shard, phase)] == 0;
}

bool LocalLinkSet::is_open(int shard, int phase) const {
  return open_[shard_state_index(shard, phase)] != 0;
}

bool LocalLinkSet::any_pending() const {
  for (int p = 0; p < phases_; ++p) {
    if (!phase_has_fields(p)) continue;
    for (int s = 0; s < num_shards_; ++s) {
      const std::size_t idx = shard_state_index(s, p);
      if (open_[idx] != 0 && pending_[idx] > 0) return true;
    }
  }
  return false;
}

void LocalLinkSet::poll(bool block) {
  if (fields_ == nullptr) return;
  while (true) {
    bool progressed = false;
    std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
    const std::int64_t now = steady_now_ns();
    for (int i = 0; i < static_cast<int>(links_.size()); ++i) {
      for (int p = 0; p < phases_; ++p) {
        const std::size_t idx = link_state_index(i, p);
        if (captured_[idx] == 0 || done_[idx] != 0) continue;
        const Link& l = links_[static_cast<std::size_t>(i)];
        if (open_[shard_state_index(l.dst_shard, p)] == 0) continue;
        if (deadline_ns_[idx] > now) {
          earliest = std::min(earliest, deadline_ns_[idx]);
          continue;
        }
        deliver_staged(i, p);
        progressed = true;
      }
    }
    if (!block || progressed) return;
    EXASTP_CHECK_MSG(earliest != std::numeric_limits<std::int64_t>::max(),
                     "scheduled exchange deadlock: blocking poll with "
                     "nothing in flight");
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(earliest - steady_now_ns()));
  }
}

void LocalLinkSet::end_step() {
  EXASTP_CHECK_MSG(fields_ != nullptr, "end_step outside a scheduled step");
  for (int p = 0; p < phases_; ++p) {
    if (!phase_has_fields(p)) continue;
    for (int s = 0; s < num_shards_; ++s) {
      const std::size_t idx = shard_state_index(s, p);
      EXASTP_CHECK_MSG(open_[idx] != 0 && pending_[idx] == 0,
                       "scheduled step ended with undelivered halos");
    }
  }
  fields_ = nullptr;
}

InProcessExchange::InProcessExchange(
    const Partition& partition, std::size_t trace_size,
    double simulated_cross_rank_latency_seconds)
    : links_(partition, trace_size, /*only_rank=*/-1),
      latency_ns_(static_cast<std::int64_t>(
          simulated_cross_rank_latency_seconds * 1e9)) {
  payload_bytes_ = links_.payload_bytes();
  copied_bytes_ = links_.payload_bytes();
}

void InProcessExchange::do_sched_begin_step(
    const std::vector<std::vector<ExchangeField>>& fields) {
  links_.begin_step(fields, latency_ns_);
}

void InProcessExchange::do_sched_capture(int shard, int phase) {
  links_.capture(shard, phase);
}

void InProcessExchange::do_sched_open(int shard, int phase) {
  links_.open(shard, phase);
}

bool InProcessExchange::do_sched_delivered(int shard, int phase) const {
  return links_.delivered(shard, phase);
}

bool InProcessExchange::do_sched_any_pending() const {
  return links_.any_pending();
}

void InProcessExchange::do_sched_poll(bool block) { links_.poll(block); }

void InProcessExchange::do_sched_end_step() { links_.end_step(); }

}  // namespace exastp
