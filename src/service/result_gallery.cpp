#include "exastp/service/result_gallery.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <ostream>
#include <sstream>

#include "exastp/common/check.h"

namespace exastp {
namespace {

/// CSV field quoting: wrap in quotes, double inner quotes. Labels and
/// error messages carry commas (receiver lists, exception text) — every
/// free-text field goes through here so rows stay machine-parseable.
std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_quote(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c) << std::dec;
        } else {
          os << c;
        }
    }
  }
  os << '"';
  return os.str();
}

/// Numbers print round-trip exactly; NaN (no exact solution) prints as the
/// token "nan" in CSV and null in JSON.
std::string number(double v) {
  if (std::isnan(v)) return "nan";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string csv_row(const JobResult& r) {
  std::ostringstream os;
  os << r.id << "," << csv_quote(r.label) << "," << job_status_name(r.status)
     << "," << r.steps << "," << number(r.t) << "," << number(r.l2_error)
     << "," << number(r.seconds) << "," << r.flops << ","
     << (r.from_cache ? 1 : 0) << "," << csv_quote(r.error);
  return os.str();
}

std::string json_row(const JobResult& r) {
  std::ostringstream os;
  os << "{\"job\":" << r.id << ",\"label\":" << json_quote(r.label)
     << ",\"status\":\"" << job_status_name(r.status) << "\""
     << ",\"steps\":" << r.steps << ",\"t\":" << number(r.t)
     << ",\"l2_error\":"
     << (std::isnan(r.l2_error) ? "null" : number(r.l2_error))
     << ",\"seconds\":" << number(r.seconds) << ",\"flops\":" << r.flops
     << ",\"cached\":" << (r.from_cache ? "true" : "false")
     << ",\"summary\":" << json_quote(r.summary)
     << ",\"error\":" << json_quote(r.error) << "}";
  return os.str();
}

constexpr char kCsvHeader[] =
    "job,label,status,steps,t,l2_error,seconds,flops,cached,error";

/// Shared base for the two line-oriented galleries: writes to an owned
/// file when a path was given, to the fallback stream otherwise.
class StreamGallery : public ResultGallery {
 public:
  StreamGallery(std::string path, std::ostream* fallback)
      : path_(std::move(path)), fallback_(fallback) {}

  void open() override {
    if (path_.empty()) {
      EXASTP_CHECK_MSG(fallback_ != nullptr,
                       "gallery without a path needs a fallback stream");
      out_ = fallback_;
      return;
    }
    file_.open(path_, std::ios::trunc);
    EXASTP_CHECK_MSG(file_.good(), "cannot open gallery \"" + path_ + "\"");
    out_ = &file_;
  }

  void finish() override {
    out_->flush();
    if (file_.is_open()) file_.close();
  }

 protected:
  std::ostream& out() { return *out_; }

 private:
  std::string path_;
  std::ostream* fallback_;
  std::ofstream file_;
  std::ostream* out_ = nullptr;
};

class CsvGallery final : public StreamGallery {
 public:
  using StreamGallery::StreamGallery;
  void open() override {
    StreamGallery::open();
    out() << kCsvHeader << "\n" << std::flush;
  }
  void add(const JobResult& r) override {
    out() << csv_row(r) << "\n" << std::flush;
  }
};

class JsonlGallery final : public StreamGallery {
 public:
  using StreamGallery::StreamGallery;
  void add(const JobResult& r) override {
    out() << json_row(r) << "\n" << std::flush;
  }
};

// Binary record stream (native endianness). The "2" revision appended the
// uint64 flops field after seconds; readers reject the old magic rather
// than misparse it.
//   8 bytes  magic "EXSTPJB2"
//   records, until EOF:
//     int32  id, uint8 status, uint8 cached, int32 steps
//     double t, l2_error, seconds
//     uint64 flops
//     uint32 label bytes, label
//     uint32 error bytes, error
//     uint32 summary bytes, summary
constexpr char kBinMagic[8] = {'E', 'X', 'S', 'T', 'P', 'J', 'B', '2'};

template <class T>
void put(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <class T>
bool get(std::istream& in, T* v) {
  return static_cast<bool>(
      in.read(reinterpret_cast<char*>(v), sizeof(*v)));
}

void put_string(std::ostream& out, const std::string& s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Reads a length-prefixed string; false, before allocating anything, when
/// its bytes would run past `end`, the stream's size.
bool get_string(std::istream& in, std::streamoff end, std::string* s) {
  std::uint32_t n = 0;
  if (!get(in, &n) || n > end - static_cast<std::streamoff>(in.tellg()))
    return false;
  s->resize(n);
  return static_cast<bool>(in.read(s->data(), n));
}

class BinGallery final : public ResultGallery {
 public:
  explicit BinGallery(std::string path) : path_(std::move(path)) {
    EXASTP_CHECK_MSG(!path_.empty(), "gallery=bin needs a path (bin:PATH)");
  }

  void open() override {
    out_.open(path_, std::ios::binary | std::ios::trunc);
    EXASTP_CHECK_MSG(out_.good(), "cannot open gallery \"" + path_ + "\"");
    out_.write(kBinMagic, sizeof(kBinMagic));
    out_.flush();
  }

  void add(const JobResult& r) override {
    put(out_, static_cast<std::int32_t>(r.id));
    put(out_, static_cast<std::uint8_t>(r.status));
    put(out_, static_cast<std::uint8_t>(r.from_cache ? 1 : 0));
    put(out_, static_cast<std::int32_t>(r.steps));
    put(out_, r.t);
    put(out_, r.l2_error);
    put(out_, r.seconds);
    put(out_, static_cast<std::uint64_t>(r.flops));
    put_string(out_, r.label);
    put_string(out_, r.error);
    put_string(out_, r.summary);
    out_.flush();
  }

  void finish() override { out_.close(); }

 private:
  std::string path_;
  std::ofstream out_;
};

/// Directory tree: one pretty-printable JSON file per job plus a CSV index
/// — the layout downstream dashboards scrape per-job artifacts from.
class DirGallery final : public ResultGallery {
 public:
  explicit DirGallery(std::string path) : path_(std::move(path)) {
    EXASTP_CHECK_MSG(!path_.empty(), "gallery=dir needs a path (dir:PATH)");
  }

  void open() override {
    std::filesystem::create_directories(path_);
    index_.open(path_ + "/index.csv", std::ios::trunc);
    EXASTP_CHECK_MSG(index_.good(),
                     "cannot open gallery index in \"" + path_ + "\"");
    index_ << kCsvHeader << "\n" << std::flush;
  }

  void add(const JobResult& r) override {
    char name[32];
    std::snprintf(name, sizeof(name), "job_%04d.json", r.id);
    std::ofstream job(path_ + "/" + name, std::ios::trunc);
    EXASTP_CHECK_MSG(job.good(), "cannot write " + path_ + "/" + name);
    job << json_row(r) << "\n";
    index_ << csv_row(r) << "\n" << std::flush;
  }

  void finish() override { index_.close(); }

 private:
  std::string path_;
  std::ofstream index_;
};

/// The gallery kinds, in the order of kGalleryKinds.
enum class GalleryKind { kCsv, kJsonl, kBin, kDir };
constexpr const char* kGalleryKinds[] = {"csv", "jsonl", "bin", "dir"};

/// The GalleryKind named `kind`; throws, naming the gallery= key, on others.
GalleryKind gallery_kind(const std::string& kind) {
  std::string known;
  for (std::size_t k = 0; k < std::size(kGalleryKinds); ++k) {
    if (kind == kGalleryKinds[k]) return static_cast<GalleryKind>(k);
    if (k > 0) known += '|';
    known += kGalleryKinds[k];
  }
  EXASTP_FAIL("gallery=" + kind + ": expected " + known);
}

}  // namespace

std::string job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kSkipped: return "skipped";
  }
  EXASTP_FAIL("unknown job status");
}

std::vector<std::string> gallery_kinds() {
  return {std::begin(kGalleryKinds), std::end(kGalleryKinds)};
}

GallerySpec parse_gallery_spec(const std::string& value) {
  GallerySpec spec;
  const auto colon = value.find(':');
  spec.kind = value.substr(0, colon);
  if (colon != std::string::npos) spec.path = value.substr(colon + 1);
  gallery_kind(spec.kind);  // throws, naming the key
  return spec;
}

std::unique_ptr<ResultGallery> make_gallery(const GallerySpec& spec,
                                            std::ostream* fallback) {
  switch (gallery_kind(spec.kind)) {
    case GalleryKind::kCsv:
      return std::make_unique<CsvGallery>(spec.path, fallback);
    case GalleryKind::kJsonl:
      return std::make_unique<JsonlGallery>(spec.path, fallback);
    case GalleryKind::kBin: return std::make_unique<BinGallery>(spec.path);
    case GalleryKind::kDir: return std::make_unique<DirGallery>(spec.path);
  }
  EXASTP_FAIL("unknown gallery kind");
}

std::vector<JobResult> read_gallery_records(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXASTP_CHECK_MSG(in.good(), "cannot open gallery \"" + path + "\"");
  const std::streamoff end = in.tellg();
  in.seekg(0);
  char magic[8];
  EXASTP_CHECK_MSG(in.read(magic, sizeof(magic)) &&
                       std::equal(magic, magic + 8, kBinMagic),
                   "\"" + path + "\" is not a bin gallery stream");
  std::vector<JobResult> results;
  while (true) {
    JobResult r;
    std::int32_t id, steps;
    std::uint8_t status, cached;
    if (!get(in, &id)) break;  // clean EOF between records
    std::uint64_t flops = 0;
    if (!get(in, &status) || !get(in, &cached) || !get(in, &steps) ||
        !get(in, &r.t) || !get(in, &r.l2_error) || !get(in, &r.seconds) ||
        !get(in, &flops) || !get_string(in, end, &r.label) ||
        !get_string(in, end, &r.error) || !get_string(in, end, &r.summary))
      break;  // trailing partial record (killed run) — ignore
    EXASTP_CHECK_MSG(status <= static_cast<std::uint8_t>(JobStatus::kSkipped),
                     "\"" + path + "\": record " +
                         std::to_string(results.size()) +
                         " has no job status " + std::to_string(status));
    r.id = id;
    r.steps = steps;
    r.status = static_cast<JobStatus>(status);
    r.flops = flops;
    r.from_cache = cached != 0;
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace exastp
