#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "lint/engine.hpp"
#include "lint/rules.hpp"

/// Golden gate over the fixture corpus: each directory under
/// tests/lint/fixtures/ is a miniature repo tree; expected.txt pins every
/// finding the analyzer must (and must not) produce for it, one per line:
///
///     <file>:<line> <active|suppressed|baselined> <rule>

namespace rtdb::lint {
namespace {

namespace fs = std::filesystem;

std::string render(const LintReport& r) {
  std::string out;
  const auto emit = [&out](const std::vector<Finding>& fs,
                           const char* status) {
    for (const Finding& f : fs) {
      out += f.file + ":" + std::to_string(f.line) + " " + status + " " +
             f.rule + "\n";
    }
  };
  emit(r.active, "active");
  emit(r.suppressed, "suppressed");
  emit(r.baselined, "baselined");
  return out;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(LintFixtures, GoldensMatch) {
  const fs::path root{RTDB_LINT_FIXTURE_DIR};
  ASSERT_TRUE(fs::is_directory(root)) << root;
  int cases = 0;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (!entry.is_directory()) continue;
    ++cases;
    LintOptions opts;
    opts.root = entry.path().string();
    const fs::path baseline = entry.path() / "baseline.txt";
    if (fs::exists(baseline)) opts.baseline_path = baseline.string();
    const LintReport report = run_lint(opts);
    for (const std::string& e : report.errors) {
      ADD_FAILURE() << entry.path().filename() << ": " << e;
    }
    const fs::path golden = entry.path() / "expected.txt";
    ASSERT_TRUE(fs::exists(golden)) << golden;
    EXPECT_EQ(slurp(golden), render(report))
        << "fixture: " << entry.path().filename();
  }
  EXPECT_GE(cases, 13);
}

TEST(LintFixtures, EveryRuleHasAFixturePositive) {
  // A rule nobody exercises is a rule that silently rots: each shipped rule
  // must appear in at least one golden.
  const fs::path root{RTDB_LINT_FIXTURE_DIR};
  std::set<std::string> pinned;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (!entry.is_directory()) continue;
    std::ifstream in(entry.path() / "expected.txt");
    std::string file, status, rule;
    while (in >> file >> status >> rule) pinned.insert(rule);
  }
  for (const auto& rule : make_default_rules()) {
    EXPECT_TRUE(pinned.count(std::string(rule->name())))
        << "no fixture golden exercises rule '" << rule->name() << "'";
  }
}

}  // namespace
}  // namespace rtdb::lint
