// In-process exchange: shards living in this process refresh their halo
// traces by a zero-copy gather.
//
// The destination halo block is contiguous and ordered exactly like the
// HaloPlan's packed plane (mesh/grid.h halo order), so a link whose
// receiver is ready delivers with a single strided gather: each source
// cell's trace of the shared face is copied straight into its halo slot in
// the receiving shard's trace buffer, with no intermediate send/recv
// buffers.
//
// Two backends share the machinery through LocalLinkSet: InProcessExchange
// (every shard local — the backend=inprocess path) and the hybrid MPI
// backend's intra-rank legs (solver/mpi_exchange.cpp keeps only the links
// whose both endpoints live on this rank and moves the rest over MPI).
//
// LocalLinkSet implements the dependency-scheduled protocol
// (exchange_backend.h): at capture time a link delivers zero-copy when its
// receiver has already opened the phase, and otherwise packs the plane
// into a per-(link, phase) staging buffer — the source keeps computing
// into the same field, so the bytes must be taken at capture. Staged
// planes land when the receiver opens.
//
// InProcessExchange can additionally simulate cross-rank latency: links
// whose endpoints map to different ranks of the Partition's rank map
// (Partition::assign_ranks) deliver only after a configurable delay on the
// steady clock. The delay postpones *when* bytes land, never *what* they
// are, so latency-injected runs stay bitwise-identical — benches and tests
// use this to measure and exercise the scheduler's latency hiding without
// a real multi-rank launch.
//
// The exchange is deterministic: links are walked in a fixed order and
// every halo slot is written by exactly one plan, so sharded stepping
// stays bitwise-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exastp/common/aligned.h"
#include "exastp/mesh/partition.h"
#include "exastp/solver/exchange_backend.h"

namespace exastp {

/// The intra-process link set: one link per HaloPlan whose source and
/// destination shards are both materialized here, plus the staging state
/// of the scheduled protocol. Shared by InProcessExchange and the hybrid
/// MPI backend's intra-rank legs.
class LocalLinkSet {
 public:
  /// Builds the links of `partition` with `trace_size` doubles per face
  /// trace. `only_rank >= 0` keeps only links whose BOTH endpoints live on
  /// that rank of the partition's rank map; -1 keeps every link. Each link
  /// remembers whether its endpoints sit on different ranks (the
  /// simulated-latency predicate; always false under only_rank >= 0).
  LocalLinkSet(const Partition& partition, std::size_t trace_size,
               int only_rank);

  // Mirrors the ExchangeBackend sched_* contract.
  // `latency_ns > 0` delays cross-rank link deliveries by that much on
  // the steady clock (begin of a step's capture -> earliest delivery).
  void begin_step(const std::vector<std::vector<ExchangeField>>& fields,
                  std::int64_t latency_ns);
  void capture(int shard, int phase);
  void open(int shard, int phase);
  bool delivered(int shard, int phase) const;
  bool is_open(int shard, int phase) const;
  bool any_pending() const;
  /// Delivers every staged plane whose receiver is open and whose latency
  /// deadline has passed. `block` sleeps until the earliest such deadline
  /// when nothing is deliverable right now (fails loudly if nothing is in
  /// flight at all — that is a scheduler deadlock).
  void poll(bool block);
  void end_step();

  std::size_t payload_bytes() const { return payload_bytes_; }

 private:
  struct Link {
    int dst_shard = -1;
    int src_shard = -1;
    /// Source trace offsets (doubles) in gather order = halo slot order.
    std::vector<std::size_t> src_offsets;
    std::size_t dst_offset = 0;  ///< doubles into the destination array
    bool cross_rank = false;     ///< endpoints on different partition ranks
  };

  bool phase_has_fields(int phase) const {
    return !(*fields_)[static_cast<std::size_t>(phase)].empty();
  }
  std::size_t link_state_index(int link, int phase) const {
    return static_cast<std::size_t>(link) * static_cast<std::size_t>(phases_) +
           static_cast<std::size_t>(phase);
  }
  std::size_t shard_state_index(int shard, int phase) const {
    return static_cast<std::size_t>(shard) *
               static_cast<std::size_t>(phases_) +
           static_cast<std::size_t>(phase);
  }
  void stage(int link, int phase);
  void deliver_direct(int link, int phase);
  void deliver_staged(int link, int phase);

  std::size_t trace_size_ = 0;
  int num_shards_ = 0;
  std::vector<Link> links_;
  std::size_t payload_bytes_ = 0;

  // Per-step scheduled state. Link state is flat (link, phase)-indexed;
  // shard state (open flag, undelivered incoming count) is (shard, phase).
  const std::vector<std::vector<ExchangeField>>* fields_ = nullptr;
  int phases_ = 0;
  std::int64_t latency_ns_ = 0;
  std::vector<char> open_;
  std::vector<char> captured_;
  std::vector<char> done_;
  std::vector<std::int64_t> deadline_ns_;      ///< steady clock; 0 = none
  std::vector<AlignedVector> staged_;          ///< lazily sized pack buffers
  std::vector<int> pending_;                   ///< undelivered incoming links
};

class InProcessExchange final : public ExchangeBackend {
 public:
  /// Builds the link set for `partition` with `trace_size` doubles per
  /// face trace (kernels/face.h FaceLayout::size()).
  /// `simulated_cross_rank_latency_seconds > 0` delays every link whose
  /// endpoints the partition's rank map places on different ranks — a
  /// bench/test knob modelling inter-rank wire time inside one process
  /// (bitwise-neutral; see the file comment).
  InProcessExchange(const Partition& partition, std::size_t trace_size,
                    double simulated_cross_rank_latency_seconds = 0.0);

  std::string name() const override { return "inprocess"; }

 protected:
  void do_sched_begin_step(
      const std::vector<std::vector<ExchangeField>>& fields) override;
  void do_sched_capture(int shard, int phase) override;
  void do_sched_open(int shard, int phase) override;
  bool do_sched_delivered(int shard, int phase) const override;
  bool do_sched_any_pending() const override;
  void do_sched_poll(bool block) override;
  void do_sched_end_step() override;

 private:
  LocalLinkSet links_;
  std::int64_t latency_ns_ = 0;
};

}  // namespace exastp
