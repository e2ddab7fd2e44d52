// Incremental receiver-row sinks: appending CSV and a compact binary
// record stream.
//
// Both sinks stream one row per sample as it is produced — the file on disk
// is valid after every append (flush per row), so long runs can be tailed,
// post-processed or shipped while the solver is still stepping; nothing is
// buffered until the end of the run.
//
// Binary record-stream format (native endianness, for downstream tooling):
//   8 bytes   magic "EXSTPRC1"
//   uint32    num_receivers
//   uint32    num_quantities
//   int32  x num_quantities           sampled quantity indices
//   double x 3 x num_receivers        receiver positions (x, y, z)
//   records, until EOF:
//     double                          time
//     double x num_receivers x num_quantities   row, receiver-major
// read_receiver_records() re-reads the stream (round-trip tested). The two
// sinks are the only writers of their formats: a re-read or merged stream
// is written back through them (stream_records).
#pragma once

#include <array>
#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include "exastp/io/receiver_network.h"

namespace exastp {

/// Appends "t,r0_q0,r0_q1,...,rN_qM" rows to a CSV file, header first;
/// quantity s is labelled "q<s>". Throws when open() cannot open the file.
class CsvReceiverSink final : public ReceiverSink {
 public:
  explicit CsvReceiverSink(std::string path) : path_(std::move(path)) {}

  void open(const std::vector<std::array<double, 3>>& positions,
            const std::vector<int>& quantities) override;
  void append(double time, const double* row, std::size_t n) override;
  void finish() override;

 private:
  std::string path_;
  std::ofstream out_;
};

/// Streams the binary record format documented above.
class BinaryReceiverSink final : public ReceiverSink {
 public:
  explicit BinaryReceiverSink(std::string path) : path_(std::move(path)) {}

  void open(const std::vector<std::array<double, 3>>& positions,
            const std::vector<int>& quantities) override;
  void append(double time, const double* row, std::size_t n) override;
  void finish() override;

 private:
  std::string path_;
  std::ofstream out_;
};

/// A re-read binary record stream.
struct ReceiverRecords {
  std::vector<std::array<double, 3>> positions;
  std::vector<int> quantities;
  std::vector<double> times;
  /// times.size() rows of positions.size() * quantities.size() values,
  /// receiver-major.
  std::vector<double> data;

  std::size_t row_size() const {
    return positions.size() * quantities.size();
  }
  double value(std::size_t sample, std::size_t receiver,
               std::size_t q) const {
    return data[sample * row_size() + receiver * quantities.size() + q];
  }
};

/// Reads a BinaryReceiverSink stream back; throws on bad magic or a
/// truncated header. A trailing partial record (e.g. from a killed run) is
/// ignored, matching the "valid after every append" contract. Rows are
/// allocated only for the whole records the file holds.
ReceiverRecords read_receiver_records(const std::string& path);

/// Streams `records` through `sink`: open, one append per row, finish.
void stream_records(const ReceiverRecords& records, ReceiverSink& sink);

/// Rank-0 merge of a distributed run's per-rank receiver streams into the
/// artifacts of a local run (see README "Distributed execution (MPI)").
/// Under backend=mpi every rank streams its locally-owned receivers to
/// `<part_base>.r<rank>.part`; this reads every rank's part (ranks that
/// own no receiver write none — missing parts are skipped), reorders the
/// rows to the full network's `positions` order (positions are copied
/// verbatim from the config, so rows match their global slot by exact
/// position equality), writes the merged binary stream to `bin_path`
/// and/or a CSV to `csv_path` (empty = skip) through the sinks, so they
/// hold the bytes a local run streams, and returns the merged records. The
/// parts stay on disk — a raised-t_end rerun keeps appending to them, and
/// a re-merge then covers the longer streams. Sample times must agree
/// across parts (the lockstep time loop guarantees it); mismatches throw.
ReceiverRecords merge_receiver_records(
    const std::string& part_base, int ranks,
    const std::vector<std::array<double, 3>>& positions,
    const std::string& bin_path, const std::string& csv_path);

}  // namespace exastp
