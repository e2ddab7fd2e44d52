// Pluggable result sinks for the ensemble service — the openbr "Gallery"
// idiom: one abstract interface, many string-keyed adaptors.
//
// Every completed pool job produces one JobResult row (id, status, steps,
// final time, L2 error, wall seconds, captured error text). Galleries
// receive the rows strictly in job-id order — deterministic regardless of
// how many jobs ran concurrently — and each adaptor streams them in its own
// format, flushed per row so a long batch can be tailed:
//
//   csv    one quoted CSV row per job (stdout when no path is given)
//   jsonl  one JSON object per line (stdout when no path is given)
//   bin    compact binary record stream (read_gallery_records round-trips)
//   dir    a directory tree: <path>/job_<NNNN>.json per job + an index.csv
//
// New formats register in the GalleryRegistry exactly like observers in
// the ObserverRegistry — no engine or pool changes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exastp/engine/named_registry.h"

namespace exastp {

enum class JobStatus {
  kDone,     ///< ran to t_end
  kFailed,   ///< threw; `error` carries the message, the batch continued
  kSkipped,  ///< never started (stop_on_failure aborted the queue first)
};

/// "done" / "failed" / "skipped".
std::string job_status_name(JobStatus status);

/// Summary row of one pool job.
struct JobResult {
  int id = -1;
  std::string label;
  JobStatus status = JobStatus::kFailed;
  std::string error;     ///< captured exception text; empty when done
  int steps = 0;         ///< time steps taken
  double t = 0.0;        ///< final simulation time
  /// NaN when the scenario has no exact solution (and for failed jobs).
  double l2_error = std::numeric_limits<double>::quiet_NaN();
  double seconds = 0.0;  ///< wall seconds of the run that produced this
  /// FLOPs the run executed, from its own telemetry registry — the
  /// per-job scope means concurrent jobs never pollute each other's count
  /// (0 for failed jobs; the original run's count for cache hits).
  std::uint64_t flops = 0;
  bool from_cache = false;  ///< memoization hit: reused an earlier job's run
  std::string summary;   ///< Simulation::summary() one-liner
};

class ResultGallery {
 public:
  virtual ~ResultGallery() = default;

  /// Called once before the first row (header, directory creation, ...).
  virtual void open() = 0;
  /// One result row; called in ascending job-id order, flushed per row.
  virtual void add(const JobResult& result) = 0;
  /// Called once after the last row.
  virtual void finish() = 0;
};

/// Builds one gallery kind. `path` may be empty for stream-capable kinds
/// (csv, jsonl), which then write to `fallback` (never null when the pool
/// calls it — the CLI passes stdout); kinds that need a real path (bin,
/// dir) throw on an empty one.
class GalleryFactory {
 public:
  virtual ~GalleryFactory() = default;

  virtual const std::string& name() const = 0;
  virtual std::unique_ptr<ResultGallery> make(const std::string& path,
                                              std::ostream* fallback)
      const = 0;
};

/// Name -> GalleryFactory map; same conventions as the other registries.
class GalleryRegistry final : public NamedRegistry<GalleryFactory> {
 public:
  GalleryRegistry() : NamedRegistry("gallery") {}
  /// The process-wide registry, populated with csv, jsonl, bin and dir.
  static GalleryRegistry& instance();
};

/// Parses a gallery= value: "kind" or "kind:path" (the first ':' splits, so
/// paths may contain further colons). Throws on an unknown kind.
struct GallerySpec {
  std::string kind = "csv";
  std::string path;  ///< empty = the fallback stream, for kinds that can
};
GallerySpec parse_gallery_spec(const std::string& value);

/// Looks up spec.kind in the registry and builds the gallery.
std::unique_ptr<ResultGallery> make_gallery(const GallerySpec& spec,
                                            std::ostream* fallback);

/// Reads a "bin" gallery stream back, in row order; throws on bad magic, a
/// truncated header or a status byte outside JobStatus. A trailing partial
/// record is ignored (the stream is valid after every append, like the
/// receiver streams), and so is a record whose string length runs past the
/// end of the file: nothing is allocated beyond the bytes the file holds.
std::vector<JobResult> read_gallery_records(const std::string& path);

}  // namespace exastp
