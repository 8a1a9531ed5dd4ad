#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/baseline.hpp"
#include "lint/rules.hpp"
#include "lint/source_file.hpp"

namespace rtdb::lint {
namespace {

TEST(Suppression, TrailingCommentCoversItsOwnLine) {
  const auto f = SourceFile::from_string(
      "src/core/x.cpp",
      "static int g = 0;  // rtdb-lint: allow(mutable-static) set once\n"
      "static int h = 0;\n");
  EXPECT_TRUE(f.suppressed("mutable-static", 1));
  EXPECT_FALSE(f.suppressed("mutable-static", 2));
  EXPECT_FALSE(f.suppressed("unordered-iter", 1));
}

TEST(Suppression, OwnLineCommentCoversTheNextCodeLine) {
  const auto f = SourceFile::from_string(
      "src/core/x.cpp",
      "// rtdb-lint: allow(mutable-static) interned at startup\n"
      "static int g = 0;\n"
      "static int h = 0;\n");
  EXPECT_TRUE(f.suppressed("mutable-static", 2));
  EXPECT_FALSE(f.suppressed("mutable-static", 3));
}

TEST(Suppression, ContinuationCommentsExtendCoverageToTheCode) {
  // Each `//` line lexes as its own comment; the suppression must still
  // reach past the continuation line to the annotated statement.
  const auto f = SourceFile::from_string(
      "src/core/x.cpp",
      "// rtdb-lint: allow(mutable-static) a justification long enough to\n"
      "// wrap onto a second comment line before the code\n"
      "static int g = 0;\n");
  EXPECT_TRUE(f.suppressed("mutable-static", 3));
}

TEST(Suppression, MultiRuleAllowList) {
  const auto f = SourceFile::from_string(
      "src/obs/x.cpp",
      "// rtdb-lint: allow(unordered-iter, float-accum) sorted downstream\n"
      "double d = 0;\n");
  EXPECT_TRUE(f.suppressed("unordered-iter", 2));
  EXPECT_TRUE(f.suppressed("float-accum", 2));
  EXPECT_FALSE(f.suppressed("mutable-static", 2));
}

TEST(Suppression, MissingJustificationSuppressesNothing) {
  const auto f = SourceFile::from_string(
      "src/core/x.cpp",
      "// rtdb-lint: allow(mutable-static)\n"
      "static int g = 0;\n");
  ASSERT_EQ(f.suppressions().size(), 1u);
  EXPECT_TRUE(f.suppressions()[0].malformed);
  EXPECT_FALSE(f.suppressed("mutable-static", 2));
}

TEST(Suppression, HygieneRuleReportsMalformedAndUnknown) {
  const auto rule = make_suppression_hygiene_rule({"mutable-static"});
  const Corpus corpus;
  std::vector<Finding> out;
  const auto f = SourceFile::from_string(
      "src/core/x.cpp",
      "// rtdb-lint: allow(mutable-static)\n"
      "static int a = 0;\n"
      "// rtdb-lint: allow(bogus-rule) reason given but rule unknown\n"
      "static int b = 0;\n"
      "// rtdb-lint: allow(mutable-static) fine, well formed\n"
      "static int c = 0;\n");
  rule->check(f, corpus, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rule, "bad-suppression");
  EXPECT_EQ(out[0].line, 1);
  EXPECT_EQ(out[1].line, 3);
  EXPECT_NE(out[1].message.find("bogus-rule"), std::string::npos);
}

TEST(Baseline, ParsesEntriesSkipsCommentsReportsGarbage) {
  std::vector<std::string> errors;
  const auto entries = parse_baseline(
      "# ledger\n"
      "\n"
      "mutable-static src/core/legacy.cpp 2\n"
      "not enough fields\n"
      "unordered-iter src/obs/old.cpp 1\n",
      errors);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].rule, "mutable-static");
  EXPECT_EQ(entries[0].file, "src/core/legacy.cpp");
  EXPECT_EQ(entries[0].count, 2);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("4"), std::string::npos);  // 1-based line number
}

TEST(Baseline, GrandfathersUpToCountInLineOrder) {
  std::vector<BaselineEntry> bl{{"mutable-static", "src/core/a.cpp", 2}};
  std::vector<Finding> findings{
      {"src/core/a.cpp", 1, "mutable-static", Severity::kError, "m"},
      {"src/core/a.cpp", 5, "mutable-static", Severity::kError, "m"},
      {"src/core/a.cpp", 9, "mutable-static", Severity::kError, "m"},
      {"src/core/a.cpp", 2, "unordered-iter", Severity::kError, "m"},
      {"src/core/b.cpp", 1, "mutable-static", Severity::kError, "m"},
  };
  std::vector<Finding> baselined;
  apply_baseline(bl, findings, baselined);
  // First two mutable-static findings in a.cpp absorbed; the third, the
  // other rule, and the other file all survive.
  ASSERT_EQ(baselined.size(), 2u);
  EXPECT_EQ(baselined[0].line, 1);
  EXPECT_EQ(baselined[1].line, 5);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 9);
}

TEST(Baseline, ReportsStaleEntriesWithLeftoverBudget) {
  std::vector<BaselineEntry> bl{
      {"mutable-static", "src/core/a.cpp", 3},  // only 1 matches: stale
      {"unordered-iter", "src/obs/gone.cpp", 2},  // none match: stale
      {"mutable-static", "src/core/b.cpp", 1},  // fully consumed: fine
  };
  std::vector<Finding> findings{
      {"src/core/a.cpp", 1, "mutable-static", Severity::kError, "m"},
      {"src/core/b.cpp", 4, "mutable-static", Severity::kError, "m"},
  };
  std::vector<Finding> baselined;
  const std::vector<std::string> stale =
      apply_baseline(bl, findings, baselined);
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_NE(stale[0].find("src/core/a.cpp"), std::string::npos);
  EXPECT_NE(stale[0].find("only 1 matched"), std::string::npos);
  EXPECT_NE(stale[1].find("src/obs/gone.cpp"), std::string::npos);
}

TEST(Baseline, NoStaleReportWhenBudgetsAreExact) {
  std::vector<BaselineEntry> bl{{"mutable-static", "src/core/a.cpp", 2}};
  std::vector<Finding> findings{
      {"src/core/a.cpp", 1, "mutable-static", Severity::kError, "m"},
      {"src/core/a.cpp", 5, "mutable-static", Severity::kError, "m"},
  };
  std::vector<Finding> baselined;
  EXPECT_TRUE(apply_baseline(bl, findings, baselined).empty());
}

TEST(Baseline, FormatRoundTrips) {
  std::vector<Finding> findings{
      {"src/core/a.cpp", 1, "mutable-static", Severity::kError, "m"},
      {"src/core/a.cpp", 5, "mutable-static", Severity::kError, "m"},
      {"src/obs/b.cpp", 2, "unordered-iter", Severity::kError, "m"},
  };
  const std::string text = format_baseline(findings);
  std::vector<std::string> errors;
  const auto entries = parse_baseline(text, errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].count + entries[1].count, 3);
}

}  // namespace
}  // namespace rtdb::lint
