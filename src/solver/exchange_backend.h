// Pluggable halo-exchange backends behind one dependency-scheduled
// protocol.
//
// An ExchangeBackend moves every HaloPlan's plan-ordered plane of face
// traces (kernels/face.h: n^2 nodes x m_pad doubles) from source shards
// into destination halo blocks, shard by shard and phase by phase, as
// ShardedSolver::step's scheduler drives it. For plan (dir, side) each
// source cell contributes its trace on face (dir, 1 - side) — the face it
// shares with the receiving shard — and each halo slot holds exactly that
// one trace. One step is bracketed by sched_begin_step /
// sched_end_step; in between the scheduler tells the backend when a
// shard's outgoing bytes become final (sched_capture: the shard completed
// the previous phase) and when a shard is ready to receive (sched_open: it
// finished reading the previous phase's halos), and asks which shards'
// halos have fully arrived (sched_delivered). A shard's *interior* sweep
// (cells that read no halo data — see CellClassification in
// mesh/partition.h) runs while its halos are in flight and its boundary
// sweep once they are delivered, so on a distributed run the halo latency
// hides behind compute instead of serializing in front of it.
//
// The backend moves bytes as early as the protocol allows: a capture whose
// receiver has already opened delivers immediately (zero-copy in-process;
// an eager MPI_Isend across ranks), otherwise the face plane is packed
// into a staging buffer at capture time — the source keeps computing into
// the same field, so the bytes of "phase start" must be taken right then.
// Delivery into a halo block happens only after the receiver opened the
// phase (it may still be reading the previous phase's halos), which makes
// the reordering WAR-free; per (link, channel) transfers are produced and
// consumed in phase order, so matching is unambiguous (MPI's
// non-overtaking rule pairs same-tag messages in order).
//
// Whatever the backend, the bytes delivered into a halo slot are exactly
// the source cell's trace, so sharded stepping stays bitwise-identical to
// the monolithic path for every backend, decomposition and thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "exastp/mesh/partition.h"
#include "exastp/telemetry/telemetry.h"

namespace exastp {

/// One logical field of a phase's (possibly multi-field) exchange.
/// `shard_fields[s]` is the base of shard s's trace buffer (six traces per
/// owned cell, then one per halo slot; kernels/face.h trace_slot) for every
/// shard materialized in this process, nullptr for the others. `channel`
/// is a small non-negative id namespacing the transfer (the MPI tag
/// space), so several fields — the LTS corrector reads the avg, half and
/// sum traces — move in the same phase without mixing bytes. Channels
/// within one phase must be distinct.
struct ExchangeField {
  std::vector<double*> shard_fields;
  int channel = 0;
};

/// Channel ids stay below this bound (keeps MPI tags small and valid).
inline constexpr int kMaxExchangeChannels = 64;

class ExchangeBackend {
 public:
  virtual ~ExchangeBackend() = default;

  /// Registry-style key: "inprocess" or "mpi".
  virtual std::string name() const = 0;

  /// Starts a step. `fields_by_phase[phase]` is that phase's field list
  /// (empty = the phase exchanges nothing); the vector must outlive the
  /// step. Resets per-link state.
  void sched_begin_step(
      const std::vector<std::vector<ExchangeField>>& fields_by_phase) {
    do_sched_begin_step(fields_by_phase);
  }
  /// Source-side: shard `shard` completed phase `phase - 1` (or the
  /// previous step, for phase 0), so its outgoing planes for `phase` are
  /// final — deliver or stage them now. Call once per (shard, phase), in
  /// ascending phase order per shard.
  void sched_capture(int shard, int phase) {
    ScopedSpan span(SpanId::kExchangePost);
    do_sched_capture(shard, phase);
  }
  /// Receiver-side: shard `shard` finished reading phase `phase - 1`
  /// halos, so `phase` deliveries may now land in its halo blocks. Call
  /// once per (shard, phase), in ascending phase order per shard.
  void sched_open(int shard, int phase) {
    ScopedSpan span(SpanId::kExchangePost);
    do_sched_open(shard, phase);
  }
  /// True once every halo slot `shard` reads in `phase` holds its
  /// neighbour's bytes (trivially true for non-exchanging phases). The
  /// shard's boundary sweep for the phase may then run.
  bool sched_delivered(int shard, int phase) const {
    return do_sched_delivered(shard, phase);
  }
  /// True while some opened (shard, phase) still waits on arrivals — the
  /// scheduler's "communication in flight" predicate for the overlap
  /// accounting.
  bool sched_any_pending() const { return do_sched_any_pending(); }
  /// Progresses in-flight transfers (MPI_Testsome-style). `block` waits
  /// until at least one delivery lands — only legal when some opened
  /// shard is undelivered (a blocking poll with nothing in flight is a
  /// scheduler bug and fails loudly).
  void sched_poll(bool block) { do_sched_poll(block); }
  /// Finishes the step: drains outstanding sends and verifies every
  /// exchanging (shard, phase) was opened and delivered.
  void sched_end_step() { do_sched_end_step(); }

  /// Halo bytes delivered into this process's shards per exchanged field
  /// (the logical traffic, one trace per halo slot; identical for every
  /// backend on a local run).
  std::size_t payload_bytes_per_exchange() const { return payload_bytes_; }
  /// Bytes memcpy'd per exchanged field when every intra-process capture
  /// delivers directly (a staged capture adds one pack copy). The
  /// in-process gather copies each source trace straight into the peer's
  /// halo block, so this equals the payload; the MPI backend also packs
  /// every cross-rank send (receives land directly in the halo block).
  std::size_t copied_bytes_per_exchange() const { return copied_bytes_; }

 protected:
  virtual void do_sched_begin_step(
      const std::vector<std::vector<ExchangeField>>& fields_by_phase) = 0;
  virtual void do_sched_capture(int shard, int phase) = 0;
  virtual void do_sched_open(int shard, int phase) = 0;
  virtual bool do_sched_delivered(int shard, int phase) const = 0;
  virtual bool do_sched_any_pending() const = 0;
  virtual void do_sched_poll(bool block) = 0;
  virtual void do_sched_end_step() = 0;

  std::size_t payload_bytes_ = 0;
  std::size_t copied_bytes_ = 0;
};

/// Builds the backend named by the `backend=` config key ("inprocess" |
/// "mpi") over `partition` with `trace_size` doubles per face trace.
/// "mpi" requires a -DEXASTP_WITH_MPI=ON build and an initialized MPI
/// launch with one rank per shard; violations fail with a clear message.
std::unique_ptr<ExchangeBackend> make_exchange_backend(
    const std::string& backend, const Partition& partition,
    std::size_t trace_size);

/// Offsets (doubles) of the traces `plan` gathers from its source shard's
/// trace buffer, in halo slot order: each source cell's trace on face
/// (plan.dir, 1 - plan.side).
std::vector<std::size_t> source_trace_offsets(const Partition& partition,
                                              const HaloPlan& plan,
                                              std::size_t trace_size);
/// Offset (doubles) of `plan`'s first halo trace in the receiving view
/// `dst`'s trace buffer; the plan's traces follow contiguously.
std::size_t halo_trace_offset(const Grid& dst, const HaloPlan& plan,
                              std::size_t trace_size);

}  // namespace exastp
