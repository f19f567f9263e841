#include "storage/disk_volume.h"

#include "common/logging.h"

namespace paradise::storage {

PageNo DiskVolume::AllocatePage() {
  std::lock_guard<std::mutex> g(mu_);
  pages_.push_back(std::make_unique<Page>());
  return static_cast<PageNo>(pages_.size() - 1);
}

PageNo DiskVolume::AllocateRun(uint32_t count) {
  PARADISE_CHECK(count > 0);
  std::lock_guard<std::mutex> g(mu_);
  PageNo first = static_cast<PageNo>(pages_.size());
  for (uint32_t i = 0; i < count; ++i) {
    pages_.push_back(std::make_unique<Page>());
  }
  return first;
}

Status DiskVolume::ReadPageLocked(PageNo page_no, Page* out) {
  sim::DiskFaultKind fault = sim::DiskFaultKind::kNone;
  if (fault_injector_ != nullptr) {
    fault = fault_injector_->OnDiskRead(fault_node_id_, volume_id_, page_no,
                                        read_ordinals_[page_no]++);
  }
  if (fault == sim::DiskFaultKind::kTransientError) {
    // The arm charged for the access but the controller reported failure.
    return Status::Unavailable("injected transient disk read error");
  }
  *out = *pages_[page_no];
  if (fault == sim::DiskFaultKind::kTornRead) {
    // Corrupt only the returned copy: flip a payload run and garble the
    // checksum word so verification cannot pass even on a fresh page.
    // The durable medium stays intact, so a retried read succeeds.
    for (size_t i = Page::kHeaderSize; i < Page::kHeaderSize + 64; ++i) {
      out->data()[i] ^= 0xff;
    }
    out->set_stored_checksum(out->stored_checksum() ^ 0xdeadbeefu);
    if (out->stored_checksum() == 0) out->set_stored_checksum(0xdeadbeefu);
  }
  return Status::OK();
}

Status DiskVolume::ReadRun(PageNo first, uint32_t count, Page* const* outs,
                           Status* statuses, bool charge) {
  if (count == 0) return Status::OK();
  std::lock_guard<std::mutex> g(mu_);
  if (first + static_cast<uint64_t>(count) > pages_.size()) {
    return Status::OutOfRange("run read past end of volume");
  }
  if (clock_ != nullptr && charge) {
    // One positioning cost for the whole run (zero when it continues the
    // previous access), then every page is a sequential transfer.
    bool sequential =
        (last_accessed_ != kInvalidPageNo && first == last_accessed_ + 1);
    clock_->ChargeDiskRead(static_cast<int64_t>(count) *
                               static_cast<int64_t>(kPageSize),
                           sequential ? 0 : 1);
  }
  // Head position advances whether or not the transfer was charged, so a
  // shared (uncharged) window leaves the arm exactly where a paid one
  // would.
  last_accessed_ = first + count - 1;
  for (uint32_t i = 0; i < count; ++i) {
    statuses[i] = ReadPageLocked(first + i, outs[i]);
  }
  return Status::OK();
}

Status DiskVolume::WriteRun(PageNo first, uint32_t count,
                            const Page* const* pages) {
  if (count == 0) return Status::OK();
  std::lock_guard<std::mutex> g(mu_);
  if (first + static_cast<uint64_t>(count) > pages_.size()) {
    return Status::OutOfRange("run write past end of volume");
  }
  if (clock_ != nullptr) {
    // One positioning cost for the whole run (zero when it continues the
    // previous access), then every page is a sequential transfer.
    bool sequential =
        (last_accessed_ != kInvalidPageNo && first == last_accessed_ + 1);
    clock_->ChargeDiskWrite(static_cast<int64_t>(count) *
                                static_cast<int64_t>(kPageSize),
                            sequential ? 0 : 1);
    last_accessed_ = first + count - 1;
  }
  for (uint32_t i = 0; i < count; ++i) {
    *pages_[first + i] = *pages[i];
    pages_[first + i]->StampChecksum();
  }
  return Status::OK();
}

void DiskVolume::SetFaultInjector(sim::FaultInjector* injector,
                                  uint32_t node_id) {
  std::lock_guard<std::mutex> g(mu_);
  fault_injector_ = injector;
  fault_node_id_ = node_id;
  read_ordinals_.clear();
}

uint32_t DiskVolume::num_pages() const {
  std::lock_guard<std::mutex> g(mu_);
  return static_cast<uint32_t>(pages_.size());
}

}  // namespace paradise::storage
