#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "obs/export.hpp"

namespace rtdb::obs {
namespace {

TelemetryConfig spans_on() {
  TelemetryConfig cfg;
  cfg.spans = true;
  return cfg;
}

TEST(TelemetrySpan, DisabledRecordsNothing) {
  Telemetry tel;  // default config: everything off
  tel.txn_admit(TxnId{1}, SiteId{2}, sim::SimTime{0.0},
                sim::SimTime{5.0}, sim::SimTime{0.0});
  tel.txn_ready(TxnId{1}, sim::SimTime{1.0});
  tel.txn_end(TxnId{1}, Outcome::kCommitted, sim::SimTime{2.0});
  tel.event(EventKind::kTxnCommit, sim::SimTime{2.0}, SiteId{2}, TxnId{1});
  EXPECT_EQ(tel.span_count(), 0u);
  EXPECT_TRUE(tel.events().empty());
}

TEST(TelemetrySpan, AdmitIsIdempotent) {
  Telemetry tel;
  tel.configure(spans_on());
  tel.txn_admit(TxnId{7}, SiteId{3}, sim::SimTime{0.0},
                sim::SimTime{9.0}, sim::SimTime{0.5});
  tel.txn_admit(TxnId{7}, SiteId{4}, sim::SimTime{1.0},
                sim::SimTime{8.0}, sim::SimTime{1.5});  // remote re-admission: ignored
  ASSERT_EQ(tel.span_count(), 1u);
  const TxnSpan* s = tel.spans_sorted()[0];
  EXPECT_EQ(s->origin, SiteId{3});
  EXPECT_DOUBLE_EQ(s->admit.sec(), 0.5);
  EXPECT_DOUBLE_EQ(s->deadline.sec(), 9.0);
}

TEST(TelemetrySpan, QueueWaitAccumulatesAcrossEpisodes) {
  Telemetry tel;
  tel.configure(spans_on());
  tel.txn_admit(TxnId{1}, SiteId{2}, sim::SimTime{0.0},
                sim::SimTime{100.0}, sim::SimTime{0.0});
  tel.txn_ready(TxnId{1}, sim::SimTime{1.0});
  tel.txn_exec_start(TxnId{1}, sim::SimTime{3.0});  // 2s queued
  tel.txn_ready(TxnId{1}, sim::SimTime{5.0});       // restarted, queued again
  tel.txn_exec_start(TxnId{1}, sim::SimTime{6.5});  // +1.5s
  tel.txn_end(TxnId{1}, Outcome::kCommitted, sim::SimTime{8.0});
  const TxnSpan* s = tel.spans_sorted()[0];
  EXPECT_DOUBLE_EQ(s->wait[static_cast<int>(WaitBucket::kQueue)], 3.5);
  EXPECT_DOUBLE_EQ(s->first_ready.sec(), 1.0);
  EXPECT_DOUBLE_EQ(s->first_exec.sec(), 3.0);
  EXPECT_EQ(s->outcome, Outcome::kCommitted);
}

TEST(TelemetrySpan, DequeuedClosesEpisodeWithoutMarkingExec) {
  Telemetry tel;
  tel.configure(spans_on());
  tel.txn_admit(TxnId{1}, SiteId{2}, sim::SimTime{0.0},
                sim::SimTime{100.0}, sim::SimTime{0.0});
  tel.txn_ready(TxnId{1}, sim::SimTime{1.0});
  tel.txn_dequeued(TxnId{1}, sim::SimTime{4.0});  // left an admission queue, not an executor
  const TxnSpan* s = tel.spans_sorted()[0];
  EXPECT_DOUBLE_EQ(s->wait[static_cast<int>(WaitBucket::kQueue)], 3.0);
  EXPECT_DOUBLE_EQ(s->first_exec.sec(), -1.0);
}

TEST(TelemetrySpan, DyingInReadyQueueCountsAsQueueWait) {
  Telemetry tel;
  tel.configure(spans_on());
  tel.txn_admit(TxnId{1}, SiteId{2}, sim::SimTime{0.0},
                sim::SimTime{10.0}, sim::SimTime{0.0});
  tel.txn_ready(TxnId{1}, sim::SimTime{2.0});
  tel.txn_end(TxnId{1}, Outcome::kMissed, sim::SimTime{10.0});  // never executed
  const TxnSpan* s = tel.spans_sorted()[0];
  EXPECT_DOUBLE_EQ(s->wait[static_cast<int>(WaitBucket::kQueue)], 8.0);
  EXPECT_EQ(s->dominant_wait(), WaitBucket::kQueue);
}

TEST(TelemetrySpan, EndIsFirstWins) {
  Telemetry tel;
  tel.configure(spans_on());
  tel.txn_admit(TxnId{1}, SiteId{2}, sim::SimTime{0.0},
                sim::SimTime{10.0}, sim::SimTime{0.0});
  tel.txn_end(TxnId{1}, Outcome::kCommitted, sim::SimTime{4.0});
  // txn_end is idempotent: a later outcome for a closed span is ignored.
  tel.txn_end(TxnId{1}, Outcome::kAborted, sim::SimTime{5.0});
  const TxnSpan* s = tel.spans_sorted()[0];
  EXPECT_EQ(s->outcome, Outcome::kCommitted);
  EXPECT_DOUBLE_EQ(s->end.sec(), 4.0);
}

TEST(TelemetryWait, LockQueueServedSplitsRoundTrip) {
  Telemetry tel;
  tel.configure(spans_on());
  tel.txn_admit(TxnId{1}, SiteId{2}, sim::SimTime{0.0},
                sim::SimTime{100.0}, sim::SimTime{0.0});
  // Server: queued at t=1 behind site 5, served at t=4 (3s lock wait).
  tel.lock_queued(TxnId{1}, ObjectId{42}, SiteId{5},
                  sim::SimTime{1.0});
  tel.lock_served(TxnId{1}, ObjectId{42}, sim::SimTime{4.0});
  // Client: whole object round trip took 5s -> 3s lock + 2s network.
  tel.object_wait(TxnId{1}, ObjectId{42}, sim::seconds(5.0));
  const TxnSpan* s = tel.spans_sorted()[0];
  EXPECT_DOUBLE_EQ(s->wait[static_cast<int>(WaitBucket::kLock)], 3.0);
  EXPECT_DOUBLE_EQ(s->wait[static_cast<int>(WaitBucket::kNet)], 2.0);
  EXPECT_EQ(s->worst_object, ObjectId{42});
  EXPECT_EQ(s->worst_holder, SiteId{5});
  EXPECT_DOUBLE_EQ(s->worst_object_wait, 3.0);
}

TEST(TelemetryWait, ServerDiskWaitIsNotDoubleCountedAsNetwork) {
  Telemetry tel;
  tel.configure(spans_on());
  tel.txn_admit(TxnId{1}, SiteId{2}, sim::SimTime{0.0},
                sim::SimTime{100.0}, sim::SimTime{0.0});
  // Instant grant, but the page read before shipping took 0.4s.
  tel.server_disk_wait(TxnId{1}, ObjectId{42}, sim::seconds(0.4));
  tel.object_wait(TxnId{1}, ObjectId{42}, sim::seconds(1.0));  // client saw 1.0s total
  const TxnSpan* s = tel.spans_sorted()[0];
  EXPECT_DOUBLE_EQ(s->wait[static_cast<int>(WaitBucket::kDisk)], 0.4);
  EXPECT_DOUBLE_EQ(s->wait[static_cast<int>(WaitBucket::kNet)], 0.6);
  EXPECT_DOUBLE_EQ(s->wait[static_cast<int>(WaitBucket::kLock)], 0.0);
}

TEST(TelemetryWait, StillQueuedLocksChargedAtDeath) {
  Telemetry tel;
  tel.configure(spans_on());
  tel.txn_admit(TxnId{1}, SiteId{2}, sim::SimTime{0.0},
                sim::SimTime{10.0}, sim::SimTime{0.0});
  tel.lock_queued(TxnId{1}, ObjectId{7}, SiteId{9},
                  sim::SimTime{2.0});  // never served
  tel.txn_end(TxnId{1}, Outcome::kMissed, sim::SimTime{10.0});
  const TxnSpan* s = tel.spans_sorted()[0];
  EXPECT_DOUBLE_EQ(s->wait[static_cast<int>(WaitBucket::kLock)], 8.0);
  EXPECT_EQ(s->worst_object, ObjectId{7});
  EXPECT_EQ(s->worst_holder, SiteId{9});
  EXPECT_EQ(s->dominant_wait(), WaitBucket::kLock);
}

TEST(TelemetryAttribution, TotalsReconcile) {
  Telemetry tel;
  tel.configure(spans_on());
  // One lock-dominated miss, one no-wait abort, one straggler.
  tel.txn_admit(TxnId{1}, SiteId{2}, sim::SimTime{0.0},
                sim::SimTime{10.0}, sim::SimTime{0.0});
  tel.lock_queued(TxnId{1}, ObjectId{7}, SiteId{9},
                  sim::SimTime{0.0});
  tel.txn_end(TxnId{1}, Outcome::kMissed, sim::SimTime{10.0});
  tel.attribute_outcome(TxnId{1}, Outcome::kMissed);
  tel.txn_admit(TxnId{2}, SiteId{3}, sim::SimTime{0.0},
                sim::SimTime{10.0}, sim::SimTime{0.0});
  tel.txn_end(TxnId{2}, Outcome::kAborted, sim::SimTime{1.0});
  tel.attribute_outcome(TxnId{2}, Outcome::kAborted);
  tel.add_unattributed(1);
  const MissAttribution& at = tel.attribution();
  EXPECT_EQ(at.misses[static_cast<int>(WaitBucket::kLock)], 1u);
  EXPECT_EQ(at.aborts[kWaitBucketCount], 1u);  // kNone slot
  EXPECT_EQ(at.unattributed, 1u);
  EXPECT_EQ(at.total(), 3u);
  const auto blockers = tel.top_blockers(4);
  ASSERT_EQ(blockers.size(), 1u);
  EXPECT_EQ(blockers[0].object, ObjectId{7});
  EXPECT_EQ(blockers[0].txns, 1u);
}

TEST(TelemetryEvents, RingDropsOldestAtCapacity) {
  Telemetry tel;
  TelemetryConfig cfg;
  cfg.events = true;
  cfg.event_capacity = 3;
  tel.configure(cfg);
  for (int i = 0; i < 5; ++i) {
    tel.event(EventKind::kMsgSend, sim::SimTime{static_cast<double>(i)},
              SiteId{0}, TxnId{static_cast<TxnId::Rep>(100 + i)});
  }
  EXPECT_EQ(tel.events().size(), 3u);
  EXPECT_EQ(tel.events_dropped(), 2u);
  // 100 and 101 were dropped
  EXPECT_EQ(tel.events().front().txn, TxnId{102});
  EXPECT_EQ(tel.events().back().txn, TxnId{104});
}

TEST(TelemetrySampler, BackfillsLateSeriesAndPadsFrames) {
  Telemetry tel;
  TelemetryConfig cfg;
  cfg.sample_interval = sim::seconds(1.0);
  tel.configure(cfg);
  tel.begin_frame(sim::SimTime{0.0});
  tel.sample("a", 1.0);
  tel.end_frame();
  tel.begin_frame(sim::SimTime{1.0});
  tel.sample("a", 2.0);
  tel.sample("b", 9.0);  // first seen in frame 2: frame 1 back-filled with 0
  tel.end_frame();
  tel.begin_frame(sim::SimTime{2.0});
  tel.sample("b", 10.0);  // "a" missing: padded with 0 at end_frame
  tel.end_frame();
  ASSERT_EQ(tel.sample_times().size(), 3u);
  ASSERT_EQ(tel.series().size(), 2u);
  EXPECT_EQ(tel.series()[0].name, "a");
  EXPECT_EQ(tel.series()[0].values, (std::vector<double>{1.0, 2.0, 0.0}));
  EXPECT_EQ(tel.series()[1].name, "b");
  EXPECT_EQ(tel.series()[1].values, (std::vector<double>{0.0, 9.0, 10.0}));
}

TEST(TelemetryDigest, SensitiveToRecordsAndStableOnReplay) {
  const auto record = [](Telemetry& tel) {
    tel.configure(spans_on());
    tel.txn_admit(TxnId{1}, SiteId{2}, sim::SimTime{0.0},
                sim::SimTime{5.0}, sim::SimTime{0.0});
    tel.txn_end(TxnId{1}, Outcome::kCommitted, sim::SimTime{3.0});
  };
  Telemetry a, b, c;
  record(a);
  record(b);
  c.configure(spans_on());
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(TelemetryDigest, CoversEveryExportedField) {
  TelemetryConfig cfg;
  cfg.spans = true;
  cfg.events = true;
  const auto digest_of_event = [&](ObjectId object, std::int32_t a,
                                   std::int32_t b) {
    Telemetry tel;
    tel.configure(cfg);
    tel.event(EventKind::kLockGrant, sim::SimTime{1.0}, kServerSite, TxnId{1},
              object, a, b, 1.0);
    return tel.digest();
  };
  const std::uint64_t base = digest_of_event(ObjectId{7}, 2, 1);
  EXPECT_EQ(base, digest_of_event(ObjectId{7}, 2, 1));
  EXPECT_NE(base, digest_of_event(ObjectId{8}, 2, 1));  // Event::object
  EXPECT_NE(base, digest_of_event(ObjectId{7}, 3, 1));  // Event::a
  EXPECT_NE(base, digest_of_event(ObjectId{7}, 2, 0));  // Event::b

  // A committed span's worst holder (no blocker row is attributed).
  const auto digest_of_span = [&](SiteId holder) {
    Telemetry tel;
    tel.configure(cfg);
    tel.txn_admit(TxnId{1}, SiteId{1}, sim::SimTime{0.0}, sim::SimTime{9.0},
                  sim::SimTime{0.0});
    tel.lock_queued(TxnId{1}, ObjectId{7}, holder, sim::SimTime{1.0});
    tel.lock_served(TxnId{1}, ObjectId{7}, sim::SimTime{2.0});
    tel.txn_end(TxnId{1}, Outcome::kCommitted, sim::SimTime{3.0});
    return tel.digest();
  };
  EXPECT_NE(digest_of_span(SiteId{3}), digest_of_span(SiteId{4}));

  // A blocker row's holder: the row is attributed while holder `first`
  // dominates, then a longer wait behind site 5 overwrites the span's
  // worst holder, so the spans agree and only the rows differ.
  const auto digest_of_row = [&](SiteId first) {
    Telemetry tel;
    tel.configure(cfg);
    tel.txn_admit(TxnId{1}, SiteId{1}, sim::SimTime{0.0}, sim::SimTime{9.0},
                  sim::SimTime{0.0});
    tel.lock_queued(TxnId{1}, ObjectId{7}, first, sim::SimTime{1.0});
    tel.lock_served(TxnId{1}, ObjectId{7}, sim::SimTime{2.0});
    tel.txn_end(TxnId{1}, Outcome::kMissed, sim::SimTime{2.0});
    tel.attribute_outcome(TxnId{1}, Outcome::kMissed);
    tel.lock_queued(TxnId{1}, ObjectId{7}, SiteId{5}, sim::SimTime{2.0});
    tel.lock_served(TxnId{1}, ObjectId{7}, sim::SimTime{4.0});
    EXPECT_EQ(tel.spans_sorted()[0]->worst_holder, SiteId{5});
    return tel.digest();
  };
  EXPECT_NE(digest_of_row(SiteId{3}), digest_of_row(SiteId{4}));
}

TEST(Export, JsonEscapeHandlesSpecials) {
  std::ostringstream os;
  json_escape(os, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(os.str(), "a\\\"b\\\\c\\nd\\te\\u0001");
}

TEST(Export, JsonNumberSanitizesNonFinite) {
  std::ostringstream os;
  json_number(os, std::numeric_limits<double>::infinity());
  os << " ";
  json_number(os, std::nan(""));
  os << " ";
  json_number(os, 1.5);
  EXPECT_EQ(os.str(), "0 0 1.5");
}

TEST(Export, PerfettoSpansBalanceAndNameSites) {
  Telemetry tel;
  TelemetryConfig cfg;
  cfg.spans = true;
  cfg.events = true;
  tel.configure(cfg);
  tel.txn_admit(TxnId{1}, SiteId{1}, sim::SimTime{0.0},
                sim::SimTime{5.0}, sim::SimTime{0.0});
  tel.txn_ready(TxnId{1}, sim::SimTime{1.0});
  tel.txn_exec_start(TxnId{1}, sim::SimTime{2.0});
  tel.txn_end(TxnId{1}, Outcome::kCommitted, sim::SimTime{3.0});
  tel.txn_admit(TxnId{2}, SiteId{2}, sim::SimTime{0.0},
                sim::SimTime{5.0}, sim::SimTime{0.5});  // still open at export: closed+flagged
  tel.event(EventKind::kLockGrant, sim::SimTime{1.5}, kServerSite, TxnId{1},
            ObjectId{42}, 1, 1, 0);
  std::ostringstream os;
  write_perfetto(os, tel, /*num_sites=*/3, /*end_time=*/sim::SimTime{4.0});
  const std::string t = os.str();
  std::size_t begins = 0, ends = 0, pos = 0;
  while ((pos = t.find("\"ph\":\"b\"", pos)) != std::string::npos) {
    ++begins;
    pos += 8;
  }
  pos = 0;
  while ((pos = t.find("\"ph\":\"e\"", pos)) != std::string::npos) {
    ++ends;
    pos += 8;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_GE(begins, 2u);
  EXPECT_NE(t.find("\"server\""), std::string::npos);
  EXPECT_NE(t.find("\"client 1\""), std::string::npos);
  EXPECT_NE(t.find("lock_grant"), std::string::npos);
  EXPECT_NE(t.find("unfinished"), std::string::npos);
  EXPECT_EQ(t.find("NaN"), std::string::npos);
}

TEST(Export, JsonlWritesOneObjectPerLine) {
  Telemetry tel;
  TelemetryConfig cfg;
  cfg.spans = true;
  cfg.events = true;
  tel.configure(cfg);
  tel.txn_admit(TxnId{1}, SiteId{1}, sim::SimTime{0.0},
                sim::SimTime{5.0}, sim::SimTime{0.0});
  tel.txn_end(TxnId{1}, Outcome::kCommitted, sim::SimTime{3.0});
  tel.event(EventKind::kTxnCommit, sim::SimTime{3.0}, SiteId{1}, TxnId{1});
  std::ostringstream os;
  write_jsonl(os, tel);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 2u);  // one event + one span summary
}

}  // namespace
}  // namespace rtdb::obs
