// Chrome trace-event JSON export of a TelemetryRegistry's span rings.
//
// The output is the Trace Event Format's JSON-array flavour — loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. Every span becomes one
// complete ("ph":"X") event with microsecond ts/dur relative to the
// registry's epoch; "M" metadata events name the processes and tracks:
//
//   pid   the MPI rank (0 for local runs)
//   tid   one per worker thread that emitted spans (registration order;
//         tid 0 is usually the main thread), plus one synthetic track per
//         mesh shard (kShardTrackBase + shard) carrying the per-shard
//         interior/boundary sweeps of the sharded composite.
//
// Distributed runs mirror the receiver streams (io/receiver_sinks.h):
// every rank writes `<path>.r<K>.part` — the event objects as plain JSON
// lines — and rank 0 merges the parts into the final JSON array after the
// run's barrier. Ranks time spans on their own steady clocks, so
// cross-rank alignment is approximate (good enough to eyeball overlap;
// docs/observability.md).
#pragma once

#include <string>

#include "exastp/telemetry/telemetry.h"

namespace exastp {

/// Trace tid of shard s's synthetic track (clear of any real thread tids).
inline constexpr int kShardTrackBase = 1000;

/// Writes the complete single-process trace (a local run): metadata plus
/// every ring's events, pid 0. Truncates `path`; throws on I/O errors.
void write_chrome_trace(const TelemetryRegistry& registry,
                        const std::string& path);

/// One rank's contribution, as JSON-object lines (no enclosing array):
/// `<path>.r<rank>.part`. Every rank of a distributed run calls this.
void write_chrome_trace_part(const TelemetryRegistry& registry,
                             const std::string& path, int rank);

/// Rank-0 merge of every rank's part lines into the final JSON array at
/// `path`. Missing parts are an error — every rank writes one. Every
/// non-empty part line must be one JSON object, the shape
/// write_chrome_trace_part writes; any other line (say, the truncated last
/// line of a rank that died mid-write) throws std::invalid_argument naming
/// the part file and the line number, and leaves `path` as it was. The
/// merged trace replaces `path` atomically (common/atomic_file.h). The
/// parts stay on disk, like the receiver parts.
void merge_chrome_trace_parts(const std::string& path, int ranks);

}  // namespace exastp
