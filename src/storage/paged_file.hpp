#pragma once

#include "common/ids.hpp"
#include "sim/simulator.hpp"
#include "storage/buffer_manager.hpp"
#include "storage/disk.hpp"

/// \file paged_file.hpp
/// The server-side paged file: the timing composition of BufferManager
/// (residency/LRU) and Disk (I/O service). Reproduces the role of the
/// MiniRel PF layer in the paper's prototypes — "storage and retrieval of
/// uniquely numbered fixed-sized pages from its memory buffers and disk
/// file", with dirty pages written back on replacement.

namespace rtdb::storage {

/// Timing parameters for buffer accesses.
struct PagedFileConfig {
  /// Capacity of the memory buffer pool, in pages/objects.
  std::size_t buffer_capacity = 5000;

  /// Cost of serving a page already resident in the buffer pool.
  sim::Duration memory_access_time = sim::usec(50);

  DiskConfig disk;
};

/// An asynchronous page store: `access()` completes after the simulated
/// time the PF layer would need (buffer hit vs disk read, plus any
/// replacement write-back that delays the read by occupying the disk).
class PagedFile {
 public:
  PagedFile(sim::Simulator& sim, PagedFileConfig config)
      : sim_(sim),
        config_(config),
        disk_(sim, config.disk),
        buffer_(config.buffer_capacity) {}

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  /// Reads (or updates, when `write`) one page; returns when the page is in
  /// memory, where `done` (optional) runs. Buffer hit: memory_access_time.
  /// Miss: a disk read, behind a displaced dirty page's write-back.
  sim::SimTime access(ObjectId id, bool write,
                      sim::Simulator::Callback done = {});

  /// Pre-loads a page as resident and clean without any timing (used to
  /// model a warm server at the start of a run).
  void preload(ObjectId id) { buffer_.insert(page_of(id), /*dirty=*/false); }

  /// Installs a page whose contents just arrived over the network (a client
  /// returned an updated object): no read I/O, but a displaced dirty page
  /// still queues its write-back.
  void install(ObjectId id, bool dirty);

  [[nodiscard]] const BufferManager& buffer() const { return buffer_; }
  [[nodiscard]] const Disk& disk() const { return disk_; }
  Disk& disk() { return disk_; }

  void reset_stats() {
    buffer_.reset_stats();
    disk_.reset_stats();
  }

 private:
  sim::Simulator& sim_;
  PagedFileConfig config_;
  Disk disk_;
  BufferManager buffer_;
};

}  // namespace rtdb::storage
