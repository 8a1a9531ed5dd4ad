#include "storage/paged_file.hpp"

#include <gtest/gtest.h>

namespace rtdb::storage {
namespace {

PagedFileConfig small_cfg(std::size_t cap = 2) {
  PagedFileConfig c;
  c.buffer_capacity = cap;
  c.memory_access_time = sim::seconds(0.0001);
  c.disk.read_time = sim::seconds(0.008);
  c.disk.write_time = sim::seconds(0.008);
  return c;
}

TEST(PagedFile, MissReadsFromDisk) {
  sim::Simulator sim;
  PagedFile pf(sim, small_cfg());
  sim::SimTime done{-1.0};
  pf.access(ObjectId{1}, false, [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done.sec(), 0.008);
  EXPECT_EQ(pf.disk().reads(), 1u);
}

TEST(PagedFile, HitServedAtMemorySpeed) {
  sim::Simulator sim;
  PagedFile pf(sim, small_cfg());
  pf.preload(ObjectId{1});
  sim::SimTime done{-1.0};
  pf.access(ObjectId{1}, false, [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done.sec(), 0.0001);
  EXPECT_EQ(pf.disk().reads(), 0u);
  EXPECT_EQ(pf.buffer().hits(), 1u);
}

TEST(PagedFile, WriteAccessDirtiesPage) {
  sim::Simulator sim;
  PagedFile pf(sim, small_cfg());
  pf.preload(ObjectId{1});
  pf.access(ObjectId{1}, true, [] {});
  sim.run();
  EXPECT_TRUE(pf.buffer().is_dirty(PageId{1}));
}

TEST(PagedFile, DirtyEvictionQueuesWriteBack) {
  sim::Simulator sim;
  PagedFile pf(sim, small_cfg(1));
  pf.access(ObjectId{1}, true, [] {});   // miss, becomes dirty resident
  sim.run();
  pf.access(ObjectId{2}, false, [] {});  // evicts dirty page 1 -> write-back + read
  sim.run();
  EXPECT_EQ(pf.disk().writes(), 1u);
  EXPECT_EQ(pf.disk().reads(), 2u);
}

TEST(PagedFile, CleanEvictionSkipsWriteBack) {
  sim::Simulator sim;
  PagedFile pf(sim, small_cfg(1));
  pf.access(ObjectId{1}, false, [] {});
  sim.run();
  pf.access(ObjectId{2}, false, [] {});
  sim.run();
  EXPECT_EQ(pf.disk().writes(), 0u);
}

TEST(PagedFile, WriteBackDelaysSubsequentRead) {
  sim::Simulator sim;
  PagedFile pf(sim, small_cfg(1));
  pf.access(ObjectId{1}, true, [] {});
  sim.run();
  sim::SimTime done{-1.0};
  pf.access(ObjectId{2}, false, [&] { done = sim.now(); });
  sim.run();
  // Write-back of page 1 (8 ms) occupies the disk before the read of 2.
  EXPECT_DOUBLE_EQ(done.sec(), 0.008 + 0.008 + 0.008);
}

TEST(PagedFile, AccessReturnsTheCompletionInstant) {
  sim::Simulator sim;
  PagedFile pf(sim, small_cfg(1));
  pf.preload(ObjectId{1});
  sim.after(sim::seconds(1.0), [] {});
  sim.run();
  const sim::SimTime start = sim.now();
  EXPECT_EQ(pf.access(ObjectId{1}, true), start + sim::seconds(0.0001));
  // Miss: the read queues behind the write-back of dirty page 1.
  EXPECT_EQ(pf.access(ObjectId{2}, false),
            start + sim::seconds(0.008) + sim::seconds(0.008));
  EXPECT_EQ(sim.pending_events(), 0u);  // no callback, no event
  EXPECT_EQ(pf.disk().writes(), 1u);
  EXPECT_EQ(pf.disk().reads(), 1u);
}

TEST(PagedFile, InstallPlacesPageWithoutRead) {
  sim::Simulator sim;
  PagedFile pf(sim, small_cfg());
  pf.install(ObjectId{7}, /*dirty=*/true);
  EXPECT_TRUE(pf.buffer().contains(PageId{7}));
  EXPECT_TRUE(pf.buffer().is_dirty(PageId{7}));
  EXPECT_EQ(pf.disk().reads(), 0u);
}

TEST(PagedFile, InstallEvictionWritesBackDirtyVictim) {
  sim::Simulator sim;
  PagedFile pf(sim, small_cfg(1));
  pf.install(ObjectId{1}, true);
  pf.install(ObjectId{2}, false);
  EXPECT_EQ(pf.disk().writes(), 1u);
  EXPECT_FALSE(pf.buffer().contains(PageId{1}));
  EXPECT_TRUE(pf.buffer().contains(PageId{2}));
}

TEST(PagedFile, ResetStatsClearsCounters) {
  sim::Simulator sim;
  PagedFile pf(sim, small_cfg());
  pf.access(ObjectId{1}, false, [] {});
  sim.run();
  pf.reset_stats();
  EXPECT_EQ(pf.disk().reads(), 0u);
  EXPECT_EQ(pf.buffer().hits() + pf.buffer().misses(), 0u);
}

}  // namespace
}  // namespace rtdb::storage
