// Docs/parser synchronization: docs/config_reference.md documents exactly
// the keys parse_simulation_args accepts (plus the driver-only keys
// exastp_run peels off first).
//
// The reference uses one `### `key`` heading per key, so the contract is
// mechanical: the set of backtick-quoted heading tokens equals
// accepted_config_keys() + driver_only_keys(). A parser key without a
// heading fails here ("undocumented key"); a heading without a parser key
// fails too ("stale documentation"). CI runs this test in every build-and-
// test job, so the reference cannot drift from the parser.
//
// Every markdown file a source, test, bench, example or doc file names must
// exist, so comments cannot point at documents that are gone.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exastp/engine/simulation_config.h"

namespace exastp {
namespace {

#ifndef EXASTP_SOURCE_DIR
#error "EXASTP_SOURCE_DIR must be defined by the build (see CMakeLists.txt)"
#endif

std::string config_reference_path() {
  return std::string(EXASTP_SOURCE_DIR) + "/docs/config_reference.md";
}

/// Keys documented as `### `key`` headings in docs/config_reference.md.
std::set<std::string> documented_keys() {
  std::ifstream in(config_reference_path());
  EXPECT_TRUE(in.good()) << "cannot open " << config_reference_path();
  std::set<std::string> keys;
  std::string line;
  while (std::getline(in, line)) {
    const std::string prefix = "### `";
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t end = line.find('`', prefix.size());
    EXPECT_NE(end, std::string::npos) << "malformed heading: " << line;
    if (end == std::string::npos) continue;
    keys.insert(line.substr(prefix.size(), end - prefix.size()));
  }
  return keys;
}

std::string join(const std::vector<std::string>& v,
                 const char* sep = ", ") {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? sep : "") << v[i];
  return os.str();
}

TEST(Docs, ConfigReferenceMatchesParser) {
  std::set<std::string> expected;
  for (const std::string& key : accepted_config_keys()) expected.insert(key);
  for (const std::string& key : driver_only_keys()) expected.insert(key);
  ASSERT_FALSE(expected.empty());

  const std::set<std::string> documented = documented_keys();

  std::vector<std::string> undocumented;
  std::set_difference(expected.begin(), expected.end(), documented.begin(),
                      documented.end(), std::back_inserter(undocumented));
  EXPECT_TRUE(undocumented.empty())
      << "parser keys missing from docs/config_reference.md: "
      << join(undocumented);

  std::vector<std::string> stale;
  std::set_difference(documented.begin(), documented.end(), expected.begin(),
                      expected.end(), std::back_inserter(stale));
  EXPECT_TRUE(stale.empty())
      << "docs/config_reference.md documents keys the parser does not "
         "accept: "
      << join(stale);
}

TEST(Docs, UsageTextCoversEveryKey) {
  // The CLI usage text must mention every accepted key too (it is the
  // terse sibling of the reference).
  const std::string usage = simulation_usage();
  for (const std::string& key : accepted_config_keys()) {
    // The scenario passthrough family is spelled "scenario.<key>" in usage.
    const std::string needle =
        key == "scenario.*" ? "scenario." : key + "=";
    EXPECT_NE(usage.find(needle), std::string::npos)
        << "simulation_usage() does not mention " << key;
  }
}

TEST(Docs, ReferencedMarkdownFilesExist) {
  // A reference resolves from the repository root or from the directory of
  // the file that names it.
  namespace fs = std::filesystem;
  const fs::path root(EXASTP_SOURCE_DIR);
  std::vector<fs::path> files = {root / "README.md"};
  for (const char* dir : {"src", "tests", "bench", "examples", "docs"})
    for (const auto& entry : fs::recursive_directory_iterator(root / dir))
      if (entry.is_regular_file()) files.push_back(entry.path());
  // A path token ending in ".md" that does not run on into an identifier
  // (`run.mdof_per_s` is a member access, not a file).
  const std::regex md_ref(
      R"([A-Za-z0-9_.][A-Za-z0-9_./-]*\.md(?![A-Za-z0-9_]))");
  std::vector<std::string> dangling;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    std::string line;
    for (int lineno = 1; std::getline(in, line); ++lineno) {
      for (std::sregex_iterator it(line.begin(), line.end(), md_ref), end;
           it != end; ++it) {
        const std::string ref = it->str();
        if (!fs::exists(root / ref) && !fs::exists(file.parent_path() / ref))
          dangling.push_back(fs::relative(file, root).string() + ":" +
                             std::to_string(lineno) + ": " + ref);
      }
    }
  }
  EXPECT_TRUE(dangling.empty())
      << "references to missing markdown files:\n" << join(dangling, "\n");
}

}  // namespace
}  // namespace exastp
