#include "exastp/kernels/fusion_autotune.h"

#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "exastp/common/aligned.h"
#include "exastp/common/atomic_file.h"
#include "exastp/common/check.h"

namespace exastp {
namespace {

// Parses the tokens produced by FusionTuneTable::key/serialize.
struct ParsedLine {
  std::string pde;
  int order = 0;
  Isa isa = Isa::kScalar;
  Precision precision = Precision::kF64;
  int planes = 0;
};

ParsedLine parse_line(const std::string& line) {
  std::istringstream is(line);
  ParsedLine p;
  std::string isa_tok, prec_tok;
  EXASTP_CHECK_MSG(
      static_cast<bool>(is >> p.pde >> p.order >> isa_tok >> prec_tok >>
                        p.planes),
      "malformed autotune line: " + line);
  p.isa = parse_isa(isa_tok);
  p.precision = parse_precision(prec_tok);
  EXASTP_CHECK_MSG(p.order >= 2 && p.planes >= 1 && p.planes <= p.order,
                   "autotune line out of range: " + line);
  return p;
}

/// The candidate the calling thread's tune() is measuring: only that
/// thread's kernel builds see it; every other thread keeps reading the
/// published table.
struct Trial {
  std::string key;
  int planes = 0;
};
thread_local const Trial* t_trial = nullptr;

}  // namespace

FusionTuneTable& FusionTuneTable::instance() {
  static FusionTuneTable table;
  return table;
}

std::string FusionTuneTable::key(const std::string& pde, int order, Isa isa,
                                 Precision precision) {
  return pde + " " + std::to_string(order) + " " + isa_name(isa) + " " +
         precision_name(precision);
}

int FusionTuneTable::block_planes(const std::string& pde, int order,
                                  int quants, Isa isa,
                                  Precision precision) const {
  const std::string k = key(pde, order, isa, precision);
  if (t_trial != nullptr && t_trial->key == k) return t_trial->planes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = table_.find(k);
    if (it != table_.end()) {
      return it->second < order ? it->second : order;
    }
  }
  return heuristic_block_planes(order, quants, isa, precision);
}

bool FusionTuneTable::has(const std::string& pde, int order, Isa isa,
                          Precision precision) const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.count(key(pde, order, isa, precision)) != 0;
}

void FusionTuneTable::set(const std::string& pde, int order, Isa isa,
                          Precision precision, int planes) {
  EXASTP_CHECK_MSG(planes >= 1 && planes <= order,
                   "block planes must be in [1, order]");
  std::lock_guard<std::mutex> lock(mu_);
  table_[key(pde, order, isa, precision)] = planes;
}

void FusionTuneTable::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  table_.clear();
}

int FusionTuneTable::heuristic_block_planes(int order, int quants, Isa isa,
                                            Precision precision) {
  // A fused block touches ~4 slabs of the cell tensors (src, flux, dst,
  // gradQ); keep that working set within half a typical 512 KiB L2.
  const std::size_t value_bytes =
      precision == Precision::kF32 ? sizeof(float) : sizeof(double);
  const std::size_t plane_bytes = static_cast<std::size_t>(order) * order *
                                  pad_to(quants, vector_width(isa)) *
                                  value_bytes;
  constexpr std::size_t kBudget = 256 * 1024;
  std::size_t planes = kBudget / (4 * plane_bytes + 1);
  if (planes < 1) planes = 1;
  if (planes > static_cast<std::size_t>(order))
    planes = static_cast<std::size_t>(order);
  return static_cast<int>(planes);
}

int FusionTuneTable::tune(const std::string& pde, int order, int quants,
                          Isa isa, Precision precision,
                          const std::function<StpKernel()>& build, int reps) {
  EXASTP_CHECK(reps >= 1);
  // Candidate plane counts: powers of two up to the order, plus the order
  // itself (no blocking) and the heuristic pick.
  std::vector<int> candidates;
  for (int b = 1; b < order; b *= 2) candidates.push_back(b);
  candidates.push_back(order);
  const int h = heuristic_block_planes(order, quants, isa, precision);
  bool have_h = false;
  for (int c : candidates) have_h = have_h || c == h;
  if (!have_h) candidates.push_back(h);

  // Each candidate is visible to this thread's builds only; the winner is
  // published once, and a build that throws publishes nothing.
  Trial trial{key(pde, order, isa, precision)};
  struct TrialScope {
    explicit TrialScope(const Trial* t) { t_trial = t; }
    ~TrialScope() { t_trial = nullptr; }
  } scope(&trial);
  double best_time = std::numeric_limits<double>::max();
  int best = h;
  for (int planes : candidates) {
    trial.planes = planes;
    StpKernel kernel = build();
    const AosLayout& aos = kernel.layout();
    // Constant unit state: every quantity (material parameters included)
    // is 1.0, a valid state for all registered PDEs; padding stays zero.
    AlignedVector q(aos.size(), 0.0), qavg(aos.size(), 0.0);
    AlignedVector favg0(aos.size(), 0.0), favg1(aos.size(), 0.0),
        favg2(aos.size(), 0.0);
    const std::size_t nodes =
        static_cast<std::size_t>(aos.n) * aos.n * aos.n;
    for (std::size_t k = 0; k < nodes; ++k)
      for (int s = 0; s < aos.m; ++s) q[k * aos.m_pad + s] = 1.0;
    const std::array<double, 3> inv_dx{1.0, 1.0, 1.0};
    StpOutputs out{qavg.data(), {favg0.data(), favg1.data(), favg2.data()}};
    kernel.run(q.data(), 1e-3, inv_dx, nullptr, out);  // warm-up
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
      kernel.run(q.data(), 1e-3, inv_dx, nullptr, out);
    const auto t1 = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(t1 - t0).count();
    if (dt < best_time) {
      best_time = dt;
      best = planes;
    }
  }
  set(pde, order, isa, precision, best);
  return best;
}

std::string FusionTuneTable::serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "# exastp fused-block autotune table\n"
     << "# pde order isa precision block_planes\n";
  for (const auto& [k, planes] : table_) os << k << " " << planes << "\n";
  return os.str();
}

void FusionTuneTable::merge_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const ParsedLine p = parse_line(line);
    set(p.pde, p.order, p.isa, p.precision, p.planes);
  }
}

bool FusionTuneTable::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  merge_text(buf.str());
  return true;
}

void FusionTuneTable::save_file(const std::string& path) const {
  write_file_atomically(path, serialize(), "autotune table");
}

}  // namespace exastp
