#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

namespace rtdb::sim {
namespace {

TEST(Trace, DisabledByDefault) {
  TraceLog log;
  EXPECT_FALSE(log.active());
  EXPECT_FALSE(log.enabled(TraceCategory::kLock));
}

TEST(Trace, EnableIsAdditive) {
  TraceLog log;
  log.enable(TraceCategory::kLock);
  EXPECT_TRUE(log.enabled(TraceCategory::kLock));
  EXPECT_FALSE(log.enabled(TraceCategory::kCache));
  log.enable(TraceCategory::kCache);
  EXPECT_TRUE(log.enabled(TraceCategory::kLock));
  EXPECT_TRUE(log.enabled(TraceCategory::kCache));
  log.disable_all();
  EXPECT_FALSE(log.active());
}

TEST(Trace, AllCoversEverything) {
  TraceLog log;
  log.enable(TraceCategory::kAll);
  for (auto cat : {TraceCategory::kLock, TraceCategory::kCache,
                   TraceCategory::kNet, TraceCategory::kTxn,
                   TraceCategory::kWindow, TraceCategory::kShip}) {
    EXPECT_TRUE(log.enabled(cat));
  }
}

TEST(Trace, EmitRecordsInOrder) {
  TraceLog log;
  log.enable(TraceCategory::kAll);
  log.emit(SimTime{1.0}, TraceCategory::kLock, SiteId{3}, "first");
  log.emitf(SimTime{2.5}, TraceCategory::kTxn, SiteId{4}, "txn=%d done", 42);
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_DOUBLE_EQ(log.events()[0].time.sec(), 1.0);
  EXPECT_EQ(log.events()[0].site, SiteId{3});
  EXPECT_EQ(log.events()[0].text, "first");
  EXPECT_EQ(log.events()[1].text, "txn=42 done");
}

TEST(Trace, RingDropsOldest) {
  TraceLog log(3);
  log.enable(TraceCategory::kAll);
  for (int i = 0; i < 5; ++i) {
    log.emitf(SimTime{static_cast<double>(i)}, TraceCategory::kLock, SiteId{0}, "e%d", i);
  }
  ASSERT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.events().front().text, "e2");
  EXPECT_EQ(log.events().back().text, "e4");
  EXPECT_EQ(log.dropped(), 2u);
}

TEST(Trace, DumpFormatsTail) {
  TraceLog log;
  log.enable(TraceCategory::kAll);
  log.emit(SimTime{0.5}, TraceCategory::kWindow, SiteId{7}, "window open obj=9");
  log.emit(SimTime{0.7}, TraceCategory::kLock, SiteId{0}, "grant obj=9");
  std::ostringstream os;
  log.dump(os, 1);  // only the last event
  const std::string text = os.str();
  EXPECT_EQ(text.find("window open"), std::string::npos);
  EXPECT_NE(text.find("grant obj=9"), std::string::npos);
  EXPECT_NE(text.find("lock"), std::string::npos);
}

TEST(Trace, ClearResets) {
  TraceLog log(2);
  log.enable(TraceCategory::kAll);
  log.emit(SimTime{}, TraceCategory::kLock, SiteId{0}, "a");
  log.emit(SimTime{}, TraceCategory::kLock, SiteId{0}, "b");
  log.emit(SimTime{}, TraceCategory::kLock, SiteId{0}, "c");
  log.clear();
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

// RAII helper: sets RTDB_TRACE for one test and restores the old value.
class ScopedTraceEnv {
 public:
  explicit ScopedTraceEnv(const char* value) {
    const char* old = std::getenv("RTDB_TRACE");
    if (old != nullptr) saved_ = old;
    had_old_ = old != nullptr;
    if (value != nullptr) {
      setenv("RTDB_TRACE", value, 1);
    } else {
      unsetenv("RTDB_TRACE");
    }
  }
  ~ScopedTraceEnv() {
    if (had_old_) {
      setenv("RTDB_TRACE", saved_.c_str(), 1);
    } else {
      unsetenv("RTDB_TRACE");
    }
  }

 private:
  std::string saved_;
  bool had_old_ = false;
};

TEST(TraceEnv, UnsetLeavesMaskUnchanged) {
  ScopedTraceEnv env(nullptr);
  TraceLog log;
  log.enable(TraceCategory::kCache);
  log.enable_from_env();
  EXPECT_TRUE(log.enabled(TraceCategory::kCache));
  EXPECT_FALSE(log.enabled(TraceCategory::kLock));
}

TEST(TraceEnv, EmptyStringEnablesNothing) {
  ScopedTraceEnv env("");
  TraceLog log;
  log.enable_from_env();
  EXPECT_FALSE(log.active());
}

TEST(TraceEnv, ParsesCommaSeparatedCategories) {
  ScopedTraceEnv env("lock,net");
  TraceLog log;
  log.enable_from_env();
  EXPECT_TRUE(log.enabled(TraceCategory::kLock));
  EXPECT_TRUE(log.enabled(TraceCategory::kNet));
  EXPECT_FALSE(log.enabled(TraceCategory::kCache));
  EXPECT_FALSE(log.enabled(TraceCategory::kTxn));
}

TEST(TraceEnv, AllEnablesEveryCategory) {
  ScopedTraceEnv env("all");
  TraceLog log;
  log.enable_from_env();
  for (auto cat : {TraceCategory::kLock, TraceCategory::kCache,
                   TraceCategory::kNet, TraceCategory::kTxn,
                   TraceCategory::kWindow, TraceCategory::kShip}) {
    EXPECT_TRUE(log.enabled(cat));
  }
}

TEST(TraceEnv, UnknownCategoryIsIgnored) {
  ScopedTraceEnv env("lock,bogus,cache");
  TraceLog log;
  log.enable_from_env();
  EXPECT_TRUE(log.enabled(TraceCategory::kLock));
  EXPECT_TRUE(log.enabled(TraceCategory::kCache));
  EXPECT_FALSE(log.enabled(TraceCategory::kNet));
}

TEST(TraceEnv, DuplicatesAreHarmless) {
  ScopedTraceEnv env("txn,txn,txn");
  TraceLog log;
  const std::uint32_t mask = log.enable_from_env();
  EXPECT_EQ(mask, static_cast<std::uint32_t>(TraceCategory::kTxn));
  EXPECT_TRUE(log.enabled(TraceCategory::kTxn));
}

TEST(Trace, CategoryNames) {
  EXPECT_STREQ(TraceLog::name(TraceCategory::kLock), "lock");
  EXPECT_STREQ(TraceLog::name(TraceCategory::kShip), "ship");
  EXPECT_STREQ(TraceLog::name(TraceCategory::kWindow), "window");
}

}  // namespace
}  // namespace rtdb::sim
