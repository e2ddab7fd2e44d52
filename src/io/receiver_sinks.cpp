#include "exastp/io/receiver_sinks.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "exastp/common/check.h"

namespace exastp {
namespace {

constexpr char kMagic[8] = {'E', 'X', 'S', 'T', 'P', 'R', 'C', '1'};

template <class T>
void write_raw(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class T>
bool read_raw(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.gcount() == static_cast<std::streamsize>(sizeof(T));
}

}  // namespace

void CsvReceiverSink::open(const std::vector<std::array<double, 3>>& positions,
                           const std::vector<int>& quantities) {
  out_.open(path_);
  EXASTP_CHECK_MSG(out_.good(), "cannot open " + path_);
  // Full round-trippable precision: the CSV is primary seismogram output,
  // and 6 significant digits cannot distinguish successive times of a
  // long fine-stepped run.
  out_.precision(std::numeric_limits<double>::max_digits10);
  const std::vector<std::string> names = default_quantity_names(quantities);
  out_ << "t";
  for (std::size_t r = 0; r < positions.size(); ++r)
    for (const std::string& name : names) out_ << ",r" << r << "_" << name;
  out_ << "\n" << std::flush;
}

void CsvReceiverSink::append(double time, const double* row, std::size_t n) {
  out_ << time;
  for (std::size_t i = 0; i < n; ++i) out_ << "," << row[i];
  out_ << "\n" << std::flush;
  EXASTP_CHECK_MSG(out_.good(), "write failed: " + path_);
}

void CsvReceiverSink::finish() {
  out_.flush();
  EXASTP_CHECK_MSG(out_.good(), "write failed: " + path_);
}

void BinaryReceiverSink::open(
    const std::vector<std::array<double, 3>>& positions,
    const std::vector<int>& quantities) {
  out_.open(path_, std::ios::binary);
  EXASTP_CHECK_MSG(out_.good(), "cannot open " + path_);
  out_.write(kMagic, sizeof(kMagic));
  write_raw(out_, static_cast<std::uint32_t>(positions.size()));
  write_raw(out_, static_cast<std::uint32_t>(quantities.size()));
  for (int s : quantities) write_raw(out_, static_cast<std::int32_t>(s));
  for (const auto& position : positions)
    for (double x : position) write_raw(out_, x);
  out_.flush();
}

void BinaryReceiverSink::append(double time, const double* row,
                                std::size_t n) {
  write_raw(out_, time);
  out_.write(reinterpret_cast<const char*>(row),
             static_cast<std::streamsize>(n * sizeof(double)));
  out_.flush();
  EXASTP_CHECK_MSG(out_.good(), "write failed: " + path_);
}

void BinaryReceiverSink::finish() {
  out_.flush();
  EXASTP_CHECK_MSG(out_.good(), "write failed: " + path_);
}

ReceiverRecords read_receiver_records(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXASTP_CHECK_MSG(in.good(), "cannot open " + path);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  EXASTP_CHECK_MSG(
      in.gcount() == sizeof(magic) &&
          std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
      path + " is not an exastp receiver record stream");

  ReceiverRecords records;
  std::uint32_t num_receivers = 0, num_quantities = 0;
  EXASTP_CHECK_MSG(read_raw(in, &num_receivers) &&
                       read_raw(in, &num_quantities),
                   path + ": truncated record-stream header");
  for (std::uint32_t q = 0; q < num_quantities; ++q) {
    std::int32_t s = 0;
    EXASTP_CHECK_MSG(read_raw(in, &s), path + ": truncated quantity list");
    records.quantities.push_back(s);
  }
  for (std::uint32_t r = 0; r < num_receivers; ++r) {
    std::array<double, 3> position{};
    for (double& x : position)
      EXASTP_CHECK_MSG(read_raw(in, &x), path + ": truncated positions");
    records.positions.push_back(position);
  }

  // Only the whole records the file holds are allocated and read; a
  // trailing partial record from an interrupted run is left out.
  const std::size_t row_size = records.row_size();
  const std::uint64_t left = size - static_cast<std::uint64_t>(in.tellg());
  const std::size_t rows = left / sizeof(double) / (1 + row_size);
  records.times.resize(rows);
  records.data.resize(rows * row_size);
  for (std::size_t i = 0; i < rows; ++i)
    EXASTP_CHECK_MSG(
        read_raw(in, &records.times[i]) &&
            in.read(reinterpret_cast<char*>(records.data.data() +
                                            i * row_size),
                    static_cast<std::streamsize>(row_size * sizeof(double))),
        path + ": read failed");
  return records;
}

void stream_records(const ReceiverRecords& records, ReceiverSink& sink) {
  sink.open(records.positions, records.quantities);
  const std::size_t row_size = records.row_size();
  for (std::size_t i = 0; i < records.times.size(); ++i)
    sink.append(records.times[i], records.data.data() + i * row_size,
                row_size);
  sink.finish();
}

ReceiverRecords merge_receiver_records(
    const std::string& part_base, int ranks,
    const std::vector<std::array<double, 3>>& positions,
    const std::string& bin_path, const std::string& csv_path) {
  ReceiverRecords merged;
  merged.positions = positions;
  std::vector<bool> filled(positions.size(), false);

  for (int k = 0; k < ranks; ++k) {
    const std::string part = part_base + ".r" + std::to_string(k) + ".part";
    if (!std::ifstream(part, std::ios::binary).good())
      continue;  // this rank owned no receiver
    const ReceiverRecords records = read_receiver_records(part);
    if (records.positions.empty()) continue;

    if (merged.quantities.empty()) {
      merged.quantities = records.quantities;
      merged.times = records.times;
      merged.data.assign(merged.times.size() * merged.row_size(), 0.0);
    }
    EXASTP_CHECK_MSG(records.quantities == merged.quantities &&
                         records.times == merged.times,
                     part + ": per-rank streams disagree on the sample grid");

    // Positions are copied verbatim from the shared config on every rank,
    // so a row's global slot is its exact position match — the first
    // still-unfilled one, so duplicate probe points each land in their
    // own column like a local run streams them.
    for (std::size_t r = 0; r < records.positions.size(); ++r) {
      std::size_t slot = positions.size();
      for (std::size_t p = 0; p < positions.size(); ++p) {
        if (!filled[p] && positions[p] == records.positions[r]) {
          slot = p;
          break;
        }
      }
      EXASTP_CHECK_MSG(slot < positions.size(),
                       part + ": receiver not in the configured network");
      filled[slot] = true;
      const std::size_t nq = merged.quantities.size();
      for (std::size_t i = 0; i < merged.times.size(); ++i)
        for (std::size_t q = 0; q < nq; ++q)
          merged.data[i * merged.row_size() + slot * nq + q] =
              records.value(i, r, q);
    }
  }

  if (!bin_path.empty()) {
    BinaryReceiverSink sink(bin_path);
    stream_records(merged, sink);
  }
  if (!csv_path.empty()) {
    CsvReceiverSink sink(csv_path);
    stream_records(merged, sink);
  }
  return merged;
}

}  // namespace exastp
