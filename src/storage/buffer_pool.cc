#include "storage/buffer_pool.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace paradise::storage {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_ = other.page_;
    id_ = other.id_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
    other.page_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::MarkDirty() {
  PARADISE_CHECK(valid());
  pool_->MarkDirtyFrame(frame_);
}

void PageGuard::Release() {
  if (pool_ != nullptr && page_ != nullptr) {
    pool_->Unpin(frame_);
  }
  pool_ = nullptr;
  frame_ = nullptr;
  page_ = nullptr;
}

BufferPool::BufferPool(size_t capacity_frames) : capacity_(capacity_frames) {
  PARADISE_CHECK(capacity_frames > 0);
  const size_t limit =
      std::min(kMaxShards, capacity_frames / kMinFramesPerShard);
  size_t n = 1;
  while (n * 2 <= limit) n *= 2;
  shard_mask_ = n - 1;
  shards_.reserve(n);
  size_t base = capacity_frames / n;
  size_t rem = capacity_frames % n;
  for (size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->index = static_cast<uint32_t>(i);
    s->capacity = base + (i < rem ? 1 : 0);
    s->frames.reserve(s->capacity);
    shards_.push_back(std::move(s));
  }
}

void BufferPool::AttachVolume(DiskVolume* volume) {
  std::lock_guard<std::mutex> g(config_mu_);
  volumes_[volume->volume_id()] = volume;
}

DiskVolume* BufferPool::LookupVolume(uint32_t volume) const {
  std::lock_guard<std::mutex> g(config_mu_);
  auto it = volumes_.find(volume);
  return it == volumes_.end() ? nullptr : it->second;
}

void BufferPool::RemoveFromListLocked(Shard& s, internal::Frame* f) {
  if (!f->in_lru) return;
  (f->hot ? s.hot : s.cold).erase(f->lru_it);
  f->in_lru = false;
}

void BufferPool::PushUnpinnedLocked(Shard& s, internal::Frame* f) {
  auto& list = f->hot ? s.hot : s.cold;
  list.push_back(f);
  f->lru_it = std::prev(list.end());
  f->in_lru = true;
  // Keep the hot segment at its midpoint target; the demoted LRU end of
  // hot re-enters cold at the MRU end, so it still outlives scan pages.
  size_t hot_target = s.capacity * kHotEighths / 8;
  while (s.hot.size() > hot_target) {
    internal::Frame* d = s.hot.front();
    s.hot.pop_front();
    d->hot = false;
    s.cold.push_back(d);
    d->lru_it = std::prev(s.cold.end());
  }
}

StatusOr<internal::Frame*> BufferPool::FindVictimLocked(Shard& s) {
  if (!s.free_frames.empty()) {
    internal::Frame* f = s.free_frames.back();
    s.free_frames.pop_back();
    return f;
  }
  if (s.frames.size() < s.capacity) {
    s.frames.push_back(std::make_unique<internal::Frame>());
    internal::Frame* f = s.frames.back().get();
    f->shard = s.index;
    return f;
  }
  internal::Frame* victim = nullptr;
  if (!s.cold.empty()) {
    victim = s.cold.front();
  } else if (!s.hot.empty()) {
    victim = s.hot.front();
  }
  if (victim == nullptr) {
    int64_t pinned = 0, unused = 0, in_use = 0;
    for (const auto& f : s.frames) {
      if (!f->in_use) {
        ++unused;
      } else if (f->pin_count > 0) {
        ++pinned;
      } else {
        ++in_use;
      }
    }
    return Status::ResourceExhausted(
        "buffer pool: no evictable frame in shard " + std::to_string(s.index) +
        " (pinned=" + std::to_string(pinned) +
        " unpinned-in-use=" + std::to_string(in_use) +
        " unused=" + std::to_string(unused) + ")");
  }
  PARADISE_RETURN_IF_ERROR(EvictLocked(s, victim));
  return victim;
}

Status BufferPool::WriteClusteredLocked(
    DiskVolume* volume, std::vector<internal::Frame*>& frames) {
  std::sort(frames.begin(), frames.end(),
            [](const internal::Frame* a, const internal::Frame* b) {
              return a->id.page_no < b->id.page_no;
            });
  size_t i = 0;
  while (i < frames.size()) {
    size_t j = i + 1;
    while (j < frames.size() &&
           frames[j]->id.page_no == frames[j - 1]->id.page_no + 1) {
      ++j;
    }
    std::vector<const Page*> pages;
    pages.reserve(j - i);
    for (size_t k = i; k < j; ++k) pages.push_back(&frames[k]->page);
    PARADISE_RETURN_IF_ERROR(volume->WriteRun(
        frames[i]->id.page_no, static_cast<uint32_t>(j - i), pages.data()));
    for (size_t k = i; k < j; ++k) frames[k]->dirty = false;
    Shard& s = *shards_[frames[i]->shard];
    ++s.stats.writeback_runs;
    s.stats.writeback_pages += static_cast<int64_t>(j - i);
    i = j;
  }
  return Status::OK();
}

Status BufferPool::EvictLocked(Shard& s, internal::Frame* f) {
  PARADISE_CHECK(f->pin_count == 0 && f->in_use);
  if (f->dirty) {
    DiskVolume* volume = LookupVolume(f->id.volume);
    PARADISE_CHECK_MSG(volume != nullptr, "evicting page of unknown volume");
    // Write-clustering: every other dirty unpinned frame of the victim's
    // kRunPages-aligned group (all in this shard by construction) rides
    // the same positioning. Those neighbours stay resident, just clean —
    // their own later eviction becomes write-free.
    std::vector<internal::Frame*> cluster;
    for (auto& frame : s.frames) {
      internal::Frame& g = *frame;
      if (g.in_use && g.dirty && g.pin_count == 0 &&
          g.id.volume == f->id.volume &&
          g.id.page_no / kRunPages == f->id.page_no / kRunPages) {
        cluster.push_back(&g);
      }
    }
    s.stats.dirty_writebacks += static_cast<int64_t>(cluster.size());
    PARADISE_RETURN_IF_ERROR(WriteClusteredLocked(volume, cluster));
  }
  s.table.erase(f->id);
  RemoveFromListLocked(s, f);
  f->in_use = false;
  f->dirty = false;
  f->hot = false;
  f->referenced = false;
  ++s.stats.evictions;
  return Status::OK();
}

StatusOr<PageGuard> BufferPool::Pin(PageId id) {
  Shard& s = shard_for(id);
  std::lock_guard<std::mutex> g(s.mu);
  auto it = s.table.find(id);
  if (it != s.table.end()) {
    internal::Frame* f = it->second;
    RemoveFromListLocked(s, f);
    if (!f->referenced) {
      // First real use of a readahead page: stays in the cold segment.
      f->referenced = true;
    } else if (!f->hot) {
      // Re-reference: midpoint promotion into the hot segment.
      f->hot = true;
      ++s.stats.promotions;
    }
    ++f->pin_count;
    ++s.stats.hits;
    return PageGuard(this, f, &f->page, id);
  }
  ++s.stats.misses;
  DiskVolume* volume = LookupVolume(id.volume);
  if (volume == nullptr) {
    return Status::NotFound("unknown volume");
  }
  PARADISE_ASSIGN_OR_RETURN(internal::Frame * f, FindVictimLocked(s));
  Status st = ReadPageVerifiedLocked(s, volume, id.page_no, &f->page,
                                     /*first_attempt=*/0, Status::OK());
  if (!st.ok()) {
    s.free_frames.push_back(f);
    return st;
  }
  f->id = id;
  f->pin_count = 1;
  f->dirty = false;
  f->in_use = true;
  f->hot = false;
  f->referenced = true;
  f->in_lru = false;
  s.table[id] = f;
  return PageGuard(this, f, &f->page, id);
}

Status BufferPool::ReadPageVerifiedLocked(Shard& s, DiskVolume* volume,
                                          PageNo page_no, Page* out,
                                          int first_attempt, Status last) {
  for (int attempt = first_attempt; attempt < sim::RetryPolicy::kMaxAttempts;
       ++attempt) {
    if (attempt > 0) {
      // Exponential backoff before each retry, as modeled time on the
      // volume's clock — never a host sleep, so faulted runs stay
      // deterministic across thread counts.
      if (volume->clock() != nullptr) {
        volume->clock()->ChargeIdle(
            sim::RetryPolicy::BackoffSeconds(attempt - 1));
      }
      ++s.stats.read_retries;
    }
    Status st;
    PARADISE_RETURN_IF_ERROR(volume->ReadRun(page_no, 1, &out, &st));
    if (st.ok()) {
      if (out->VerifyChecksum()) return Status::OK();
      ++s.stats.checksum_failures;
      last = Status::Corruption("page checksum mismatch on volume " +
                                std::to_string(volume->volume_id()) +
                                " page " + std::to_string(page_no));
      continue;  // torn transfer: the durable copy may still be good
    }
    if (st.code() != StatusCode::kUnavailable) return st;  // not transient
    last = std::move(st);
  }
  return last;
}

StatusOr<PageGuard> BufferPool::NewPage(uint32_t volume) {
  DiskVolume* vol = LookupVolume(volume);
  if (vol == nullptr) {
    return Status::NotFound("unknown volume");
  }
  PageNo page_no = vol->AllocatePage();
  PageId id{volume, page_no};
  Shard& s = shard_for(id);
  std::lock_guard<std::mutex> g(s.mu);
  PARADISE_ASSIGN_OR_RETURN(internal::Frame * f, FindVictimLocked(s));
  f->page = Page();
  f->id = id;
  f->pin_count = 1;
  f->dirty = true;  // fresh pages must reach disk eventually
  f->in_use = true;
  f->hot = false;
  f->referenced = true;
  f->in_lru = false;
  s.table[id] = f;
  return PageGuard(this, f, &f->page, id);
}

void BufferPool::Prefetch(PageId first, uint32_t count) {
  if (count == 0 || first.page_no == kInvalidPageNo) return;
  DiskVolume* volume = LookupVolume(first.volume);
  if (volume == nullptr) return;
  uint32_t done = 0;
  while (done < count) {
    PageNo p = first.page_no + done;
    // Windows are aligned to kRunPages groups so each stays in one shard.
    uint32_t group_end = (p / kRunPages + 1) * kRunPages;
    uint32_t window = std::min(count - done, group_end - p);
    PageId window_first{first.volume, p};
    PrefetchWindow(shard_for(window_first), volume, window_first, window);
    done += window;
  }
}

void BufferPool::PrefetchWindow(Shard& s, DiskVolume* volume, PageId first,
                                uint32_t count) {
  std::lock_guard<std::mutex> g(s.mu);
  // A window that cannot fit alongside the pages it serves would evict
  // itself out of a tiny shard; skip and let demand reads handle it.
  if (count > s.capacity / 2) return;
  uint32_t i = 0;
  while (i < count) {
    if (s.table.count(PageId{first.volume, first.page_no + i}) != 0) {
      ++i;
      continue;
    }
    // Maximal run of uncached pages starting at i.
    uint32_t j = i + 1;
    while (j < count &&
           s.table.count(PageId{first.volume, first.page_no + j}) == 0) {
      ++j;
    }
    uint32_t run_len = j - i;
    PageNo run_first = first.page_no + i;

    std::vector<internal::Frame*> frames;
    frames.reserve(run_len);
    for (uint32_t k = 0; k < run_len; ++k) {
      auto victim_or = FindVictimLocked(s);
      if (!victim_or.ok()) break;  // advisory: stop if nothing evictable
      frames.push_back(victim_or.value());
    }
    if (frames.size() < run_len) {
      for (internal::Frame* f : frames) s.free_frames.push_back(f);
      return;
    }
    std::vector<Page*> pages(run_len);
    for (uint32_t k = 0; k < run_len; ++k) pages[k] = &frames[k]->page;
    std::vector<Status> statuses(run_len, Status::OK());
    // Scan sharing: while a gate is armed, every free_eighths-th-of-8
    // window (by issue ordinal — a pure function of the access sequence,
    // never of the thread schedule) attaches to the concurrent scan that
    // is already streaming these pages and rides its transfer uncharged.
    bool attached = false;
    if (scan_gate_ != nullptr && scan_gate_->free_eighths > 0) {
      attached = (scan_gate_->ordinal++ & 7) <
                 static_cast<int64_t>(scan_gate_->free_eighths);
    }
    Status run_st = volume->ReadRun(run_first, run_len, pages.data(),
                                    statuses.data(), /*charge=*/!attached);
    if (!run_st.ok()) {
      for (internal::Frame* f : frames) s.free_frames.push_back(f);
      return;
    }
    if (attached) {
      ++s.stats.scan_shared_windows;
      ++scan_gate_->attached_windows;
    } else {
      ++s.stats.readahead_batches;
    }
    for (uint32_t k = 0; k < run_len; ++k) {
      internal::Frame* f = frames[k];
      PageNo page_no = run_first + k;
      Status st = statuses[k];
      if (st.ok() && !f->page.VerifyChecksum()) {
        ++s.stats.checksum_failures;
        st = Status::Corruption("page checksum mismatch on volume " +
                                std::to_string(volume->volume_id()) +
                                " page " + std::to_string(page_no));
      }
      if (!st.ok() && (st.code() == StatusCode::kUnavailable ||
                       st.code() == StatusCode::kCorruption)) {
        // The batch consumed the first attempt; resume the retry budget.
        st = ReadPageVerifiedLocked(s, volume, page_no, &f->page,
                                    /*first_attempt=*/1, st);
      }
      if (!st.ok()) {
        // Advisory: drop the page; the demand Pin will surface the error.
        s.free_frames.push_back(f);
        continue;
      }
      f->id = PageId{first.volume, page_no};
      f->pin_count = 0;
      f->dirty = false;
      f->in_use = true;
      f->hot = false;
      f->referenced = false;  // first Pin counts as the first touch
      s.table[f->id] = f;
      s.cold.push_back(f);
      f->lru_it = std::prev(s.cold.end());
      f->in_lru = true;
      if (attached) {
        ++s.stats.scan_shared_pages;
        ++scan_gate_->attached_pages;
      } else {
        ++s.stats.readahead_pages;
      }
    }
    i = j;
  }
}

StatusOr<std::vector<PageGuard>> BufferPool::PinRange(PageId first,
                                                      uint32_t count) {
  Prefetch(first, count);
  std::vector<PageGuard> guards;
  guards.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PARADISE_ASSIGN_OR_RETURN(PageGuard guard,
                              Pin(PageId{first.volume, first.page_no + i}));
    guards.push_back(std::move(guard));
  }
  return guards;
}

void BufferPool::Unpin(internal::Frame* frame) {
  Shard& s = *shards_[frame->shard];
  std::lock_guard<std::mutex> g(s.mu);
  PARADISE_CHECK(frame->pin_count > 0);
  if (--frame->pin_count == 0) {
    PushUnpinnedLocked(s, frame);
  }
}

void BufferPool::MarkDirtyFrame(internal::Frame* frame) {
  Shard& s = *shards_[frame->shard];
  std::lock_guard<std::mutex> g(s.mu);
  frame->dirty = true;
}

Status BufferPool::FlushAll() {
  // Lock every shard (index order, the only multi-shard acquisition in the
  // pool) so the dirty set is one consistent snapshot; consecutive
  // kRunPages groups hash to different shards, so maximal runs need the
  // cross-shard view.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);

  std::map<uint32_t, std::vector<internal::Frame*>> dirty_by_volume;
  for (auto& shard : shards_) {
    for (auto& frame : shard->frames) {
      internal::Frame& f = *frame;
      if (f.in_use && f.dirty) dirty_by_volume[f.id.volume].push_back(&f);
    }
  }
  for (auto& [volume_id, frames] : dirty_by_volume) {
    DiskVolume* volume = LookupVolume(volume_id);
    PARADISE_CHECK(volume != nullptr);
    PARADISE_RETURN_IF_ERROR(WriteClusteredLocked(volume, frames));
  }
  return Status::OK();
}

void BufferPool::DiscardAll() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    std::lock_guard<std::mutex> g(s.mu);
    PARADISE_CHECK_MSG(
        [&] {
          for (auto& f : s.frames) {
            if (f->in_use && f->pin_count > 0) return false;
          }
          return true;
        }(),
        "DiscardAll with pinned pages");
    s.table.clear();
    s.cold.clear();
    s.hot.clear();
    s.free_frames.clear();
    for (auto& frame : s.frames) {
      internal::Frame& f = *frame;
      f.in_use = false;
      f.dirty = false;
      f.hot = false;
      f.referenced = false;
      f.in_lru = false;
      f.pin_count = 0;
      s.free_frames.push_back(&f);
    }
  }
}

BufferPool::Stats BufferPool::stats() const {
  // Lock every shard (index order, matching FlushAll's multi-shard
  // acquisition) before reading any counter, so the aggregate is one
  // consistent cross-shard snapshot. Locking shards one at a time would
  // let a concurrent writeback or scan land half in the sum and half out
  // of it — e.g. a cross-shard WriteRun's run counted on the first
  // frame's shard while the pages it carried on a later shard are missed.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mu);
  }
  Stats total;
  for (const auto& shard : shards_) {
    total.Add(shard->stats);
  }
  return total;
}

}  // namespace paradise::storage
