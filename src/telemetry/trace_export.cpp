#include "exastp/telemetry/trace_export.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exastp/common/atomic_file.h"
#include "exastp/common/check.h"

namespace exastp {
namespace {

/// A strict recursive-descent check of one JSON value: the RFC 8259
/// grammar without insignificant whitespace, as the writers emit it, and
/// any byte >= 0x20 inside strings. Nesting is bounded, so a corrupted line
/// cannot recurse without limit.
class JsonShape {
 public:
  explicit JsonShape(const std::string& text) : s_(text) {}

  /// True when the text is exactly one JSON object.
  bool one_object() {
    return peek() == '{' && value(0) && pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 32;

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool eat(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }
  bool literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c)
      if (!eat(*c)) return false;
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_)
          if (pos_ >= s_.size() ||
              std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0)
            return false;
      } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    eat('-');
    if (!eat('0') && !digits()) return false;
    if (eat('.') && !digits()) return false;
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    return true;
  }
  bool value(int depth) {
    if (depth > kMaxDepth) return false;
    switch (peek()) {
      case '{':
        ++pos_;
        if (eat('}')) return true;
        do {
          if (!string() || !eat(':') || !value(depth + 1)) return false;
        } while (eat(','));
        return eat('}');
      case '[':
        ++pos_;
        if (eat(']')) return true;
        do {
          if (!value(depth + 1)) return false;
        } while (eat(','));
        return eat(']');
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// One "X" (complete) event line. ts/dur are µs with ns resolution kept as
/// decimals; args carry the span's arg (phase/stage/job id) when set.
std::string complete_event(const SpanEvent& event, int pid, int tid) {
  char buf[256];
  const double ts = static_cast<double>(event.t0_ns) * 1e-3;
  const double dur = static_cast<double>(event.t1_ns - event.t0_ns) * 1e-3;
  const char* name = span_name(static_cast<SpanId>(event.id));
  if (event.arg >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%lld}}",
                  name, pid, tid, ts, dur,
                  static_cast<long long>(event.arg));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  name, pid, tid, ts, dur);
  }
  return buf;
}

std::string metadata_event(const char* what, int pid, int tid,
                           const std::string& name) {
  std::ostringstream os;
  os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) os << ",\"tid\":" << tid;
  os << ",\"args\":{\"name\":\"" << name << "\"}}";
  return os.str();
}

/// Every event line of one registry under pid `rank`, metadata first.
std::vector<std::string> event_lines(const TelemetryRegistry& registry,
                                     int rank) {
  std::vector<std::string> lines;
  lines.push_back(
      metadata_event("process_name", rank, -1,
                     "exastp rank " + std::to_string(rank)));

  std::set<int> shard_tracks;
  std::uint64_t dropped = 0;
  const std::vector<const ThreadRing*> rings = registry.rings();
  for (const ThreadRing* ring : rings) {
    const int tid = ring->thread_index();
    lines.push_back(metadata_event(
        "thread_name", rank, tid,
        tid == 0 ? "main" : "worker " + std::to_string(tid)));
    dropped += ring->dropped();
    for (const SpanEvent& event : ring->snapshot()) {
      // Shard-attributed spans render on the shard's synthetic track;
      // everything else on the thread that emitted it.
      const int track =
          event.track >= 0 ? kShardTrackBase + event.track : tid;
      if (event.track >= 0) shard_tracks.insert(event.track);
      lines.push_back(complete_event(event, rank, track));
    }
  }
  for (int shard : shard_tracks)
    lines.push_back(metadata_event("thread_name", rank,
                                   kShardTrackBase + shard,
                                   "shard " + std::to_string(shard)));
  if (dropped > 0) {
    // Make ring overflow visible in the trace itself instead of silently
    // presenting a truncated run as complete.
    lines.push_back(metadata_event(
        "process_labels", rank, -1,
        std::to_string(dropped) + " events dropped (ring wrapped)"));
  }
  return lines;
}

void write_array(std::ostream& out, const std::vector<std::string>& lines) {
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < lines.size(); ++i)
    out << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
  out << "]}\n";
}

}  // namespace

void write_chrome_trace(const TelemetryRegistry& registry,
                        const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  EXASTP_CHECK_MSG(out.good(), "cannot open trace \"" + path + "\"");
  write_array(out, event_lines(registry, 0));
  out.flush();
  EXASTP_CHECK_MSG(out.good(), "failed writing trace \"" + path + "\"");
}

void write_chrome_trace_part(const TelemetryRegistry& registry,
                             const std::string& path, int rank) {
  const std::string part = path + ".r" + std::to_string(rank) + ".part";
  std::ofstream out(part, std::ios::trunc);
  EXASTP_CHECK_MSG(out.good(), "cannot open trace part \"" + part + "\"");
  for (const std::string& line : event_lines(registry, rank))
    out << line << "\n";
  out.flush();
  EXASTP_CHECK_MSG(out.good(), "failed writing trace part \"" + part + "\"");
}

void merge_chrome_trace_parts(const std::string& path, int ranks) {
  std::vector<std::string> lines;
  for (int rank = 0; rank < ranks; ++rank) {
    const std::string part = path + ".r" + std::to_string(rank) + ".part";
    std::ifstream in(part);
    EXASTP_CHECK_MSG(in.good(), "missing trace part \"" + part + "\"");
    std::string line;
    for (long number = 1; std::getline(in, line); ++number) {
      if (line.empty()) continue;
      if (!JsonShape(line).one_object())
        throw std::invalid_argument("trace part \"" + part + "\" line " +
                                    std::to_string(number) +
                                    ": not one JSON object");
      lines.push_back(line);
    }
  }
  std::ostringstream out;
  write_array(out, lines);
  write_file_atomically(path, out.str(), "trace");
}

}  // namespace exastp
