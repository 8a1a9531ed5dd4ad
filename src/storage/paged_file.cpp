#include "storage/paged_file.hpp"

namespace rtdb::storage {

void PagedFile::install(ObjectId id, bool dirty) {
  auto evicted = buffer_.insert(page_of(id), dirty);
  if (evicted && evicted->dirty) {
    disk_.write();
  }
}

sim::SimTime PagedFile::access(ObjectId id, bool write,
                              sim::Simulator::Callback done) {
  const PageId page = page_of(id);
  if (buffer_.reference(page)) {
    if (write) buffer_.mark_dirty(page);
    const sim::SimTime when = sim_.now() + config_.memory_access_time;
    if (done) sim_.at(when, std::move(done));
    return when;
  }
  // Miss: eviction decision happens now; the displaced dirty page's
  // write-back occupies the disk ahead of our read (the PF buffer manager
  // must clean the frame before reusing it).
  auto evicted = buffer_.insert(page, write);
  if (evicted && evicted->dirty) {
    disk_.write();
  }
  return disk_.read(std::move(done));
}

}  // namespace rtdb::storage
