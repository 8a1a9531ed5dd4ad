/// \file trace_test.cpp
/// The RTDB_TRACE surface over typed telemetry events: the category of
/// every EventKind, the category-spec grammar, and the category-filtered
/// JSONL dump.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/telemetry.hpp"

namespace rtdb::obs {
namespace {

constexpr std::uint32_t bit(EventCategory c) {
  return static_cast<std::uint32_t>(c);
}

Telemetry events_on(std::size_t capacity = 1u << 20) {
  TelemetryConfig cfg;
  cfg.events = true;
  cfg.event_capacity = capacity;
  Telemetry tel;
  tel.configure(cfg);
  return tel;
}

std::string jsonl(const Telemetry& tel, std::uint32_t categories) {
  std::ostringstream os;
  write_jsonl(os, tel, categories);
  return os.str();
}

TEST(Trace, DisabledByDefault) {
  Telemetry tel;
  EXPECT_FALSE(tel.events_enabled());
  tel.event(EventKind::kLockGrant, sim::SimTime{1.0}, kServerSite);
  EXPECT_TRUE(tel.events().empty());
  EXPECT_EQ(jsonl(tel, kAllCategories), "");
}

TEST(Trace, AllCoversEverything) {
  const auto last = static_cast<std::size_t>(EventKind::kFaultRepair);
  for (std::size_t k = 0; k <= last; ++k) {
    const std::uint32_t c = bit(category_of(static_cast<EventKind>(k)));
    EXPECT_EQ(c & (c - 1), 0u) << "kind " << k << " is not in one category";
    EXPECT_NE(c & kAllCategories, 0u) << "kind " << k;
  }
  EXPECT_EQ(parse_categories("all"), kAllCategories);
}

TEST(Trace, CategoryNames) {
  EXPECT_STREQ(to_string(EventCategory::kLock), "lock");
  EXPECT_STREQ(to_string(EventCategory::kShip), "ship");
  EXPECT_STREQ(to_string(EventCategory::kWindow), "window");
  EXPECT_STREQ(to_string(EventCategory::kFault), "fault");
  EXPECT_EQ(category_of(EventKind::kLockRecall), EventCategory::kLock);
  EXPECT_EQ(category_of(EventKind::kCirculate), EventCategory::kWindow);
  EXPECT_EQ(category_of(EventKind::kTxnShip), EventCategory::kShip);
  EXPECT_EQ(category_of(EventKind::kTxnCommit), EventCategory::kTxn);
  EXPECT_EQ(category_of(EventKind::kSiteCrash), EventCategory::kFault);
}

TEST(Trace, EmitRecordsInOrder) {
  Telemetry tel = events_on();
  tel.event(EventKind::kLockGrant, sim::SimTime{1.0}, kServerSite, TxnId{5},
            ObjectId{9}, 3, 1, 1.0);
  tel.event(EventKind::kTxnCommit, sim::SimTime{2.5}, SiteId{3}, TxnId{5});
  ASSERT_EQ(tel.events().size(), 2u);
  const Event& grant = tel.events()[0];
  EXPECT_DOUBLE_EQ(grant.t.sec(), 1.0);
  EXPECT_EQ(grant.site, kServerSite);
  EXPECT_EQ(grant.object, ObjectId{9});
  EXPECT_EQ(grant.a, 3);
  EXPECT_EQ(grant.b, 1);
  EXPECT_EQ(tel.events()[1].kind, EventKind::kTxnCommit);
}

TEST(Trace, DumpFormatsTail) {
  // The inspect_run recipe: a small ring keeps the run's tail, and the
  // dump filters that tail by category.
  Telemetry tel = events_on(/*capacity=*/2);
  tel.event(EventKind::kWindowOpen, sim::SimTime{0.5}, kServerSite,
            kInvalidTxn, ObjectId{9});
  tel.event(EventKind::kMsgSend, sim::SimTime{0.6}, SiteId{1});
  tel.event(EventKind::kLockGrant, sim::SimTime{0.7}, kServerSite, TxnId{4},
            ObjectId{9}, 2);
  const std::string text = jsonl(tel, parse_categories("lock,window"));
  EXPECT_EQ(text.find("window_open"), std::string::npos);  // dropped
  EXPECT_EQ(text.find("msg_send"), std::string::npos);     // filtered
  EXPECT_NE(text.find(R"("kind":"lock_grant","site":0,"txn":4,"obj":9,)"),
            std::string::npos);
}

TEST(Trace, ClearResets) {
  Telemetry tel = events_on(/*capacity=*/2);
  for (int i = 0; i < 3; ++i) {
    tel.event(EventKind::kLockGrant, sim::SimTime{}, kServerSite);
  }
  ASSERT_EQ(tel.events_dropped(), 1u);
  tel.clear();
  EXPECT_TRUE(tel.events().empty());
  EXPECT_EQ(tel.events_dropped(), 0u);
}

TEST(TraceEnv, UnsetLeavesMaskUnchanged) {
  const std::uint32_t mask = bit(EventCategory::kCache);
  EXPECT_EQ(parse_categories(nullptr), 0u);
  EXPECT_EQ(mask | parse_categories(nullptr), mask);
}

TEST(TraceEnv, EmptyStringEnablesNothing) {
  EXPECT_EQ(parse_categories(""), 0u);
}

TEST(TraceEnv, ParsesCommaSeparatedCategories) {
  EXPECT_EQ(parse_categories("lock,net"),
            bit(EventCategory::kLock) | bit(EventCategory::kNet));
  EXPECT_EQ(parse_categories("lock,fault"),
            bit(EventCategory::kLock) | bit(EventCategory::kFault));
}

TEST(TraceEnv, AllEnablesEveryCategory) {
  const std::uint32_t mask = parse_categories("all");
  for (const auto c :
       {EventCategory::kLock, EventCategory::kCache, EventCategory::kNet,
        EventCategory::kTxn, EventCategory::kWindow, EventCategory::kShip,
        EventCategory::kFault}) {
    EXPECT_NE(mask & bit(c), 0u) << to_string(c);
  }
}

TEST(TraceEnv, UnknownCategoryIsIgnored) {
  EXPECT_EQ(parse_categories("bogus,lock,,Lock"), bit(EventCategory::kLock));
  EXPECT_EQ(parse_categories("bogus"), 0u);
}

TEST(TraceEnv, DuplicatesAreHarmless) {
  EXPECT_EQ(parse_categories("txn,txn,txn"), bit(EventCategory::kTxn));
}

TEST(Export, JsonlCategoryMaskKeepsOnlyChosenKinds) {
  Telemetry tel = events_on();
  tel.event(EventKind::kLockGrant, sim::SimTime{1.0}, kServerSite, TxnId{1},
            ObjectId{7}, 1, 1, 1.0);
  tel.event(EventKind::kTxnCommit, sim::SimTime{2.0}, SiteId{1}, TxnId{1});
  tel.event(EventKind::kSiteCrash, sim::SimTime{3.0}, kServerSite);
  const std::string text = jsonl(tel, parse_categories("lock,fault"));
  EXPECT_NE(text.find("lock_grant"), std::string::npos);
  EXPECT_NE(text.find("site_crash"), std::string::npos);
  EXPECT_EQ(text.find("txn_commit"), std::string::npos);
  EXPECT_EQ(jsonl(tel, 0), "");
}

TEST(Export, JsonlDefaultMaskWritesEveryEvent) {
  Telemetry tel = events_on();
  tel.event(EventKind::kMsgSend, sim::SimTime{0.25}, SiteId{2}, kInvalidTxn,
            ObjectId{}, 0, 0, 64.0);
  tel.event(EventKind::kTxnCommit, sim::SimTime{3.0}, SiteId{1}, TxnId{1});
  std::ostringstream os;
  write_jsonl(os, tel);
  EXPECT_EQ(os.str(), jsonl(tel, kAllCategories));
  EXPECT_EQ(os.str(),
            R"({"record":"event","t_us":250000,"kind":"msg_send","site":2,)"
            R"("txn":0,"obj":0,"a":0,"b":0,"v":64,"msg":"ObjectRequest"})"
            "\n"
            R"({"record":"event","t_us":3000000,"kind":"txn_commit","site":1,)"
            R"("txn":1,"obj":0,"a":0,"b":0,"v":0})"
            "\n");
}

}  // namespace
}  // namespace rtdb::obs
