#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

// Bounds the in-memory trace of a long traced run; spans past it are
// counted in dropped() instead of stored.
constexpr size_t kMaxSpans = 400'000;

thread_local int64_t tl_open = 0;   // innermost open span on this thread
thread_local bool tl_main = false;

uint32_t ThreadTag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff);
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

void Tracer::SetEnabled(bool on) {
  tl_main = true;
  enabled_.store(on);
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::Count(const std::string& name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back(CounterRecord{name, NowNs(), value});
}

int64_t Tracer::Open(int64_t* parent_out) {
  const int64_t id = next_id_.fetch_add(1) + 1;
  int64_t parent = tl_open;
  if (parent == 0 && !tl_main) parent = main_open_.load();
  *parent_out = parent;
  tl_open = id;
  if (tl_main) main_open_.store(id);
  return id;
}

void Tracer::Close(const char* name, int64_t id, int64_t parent,
                   int64_t start_ns) {
  SpanRecord r;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = NowNs();
  r.id = id;
  r.parent = parent;
  r.request = request_.load();
  r.tid = tl_main ? 0 : ThreadTag();
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back(r);
}

std::vector<Tracer::SpanRecord> Tracer::SpansOfRequest(int64_t request) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : spans_) {
    if (s.request == request) out.push_back(s);
  }
  return out;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfNsByName(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t lo = 0, hi = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld, \"request\": %lld}}",
                 first ? "" : ",\n", s.name, s.tid, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
    first = false;
  }
  for (const CounterRecord& c : counters_) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, "
                 "\"ts\": %.3f, \"args\": {\"value\": %.17g}}",
                 first ? "" : ",\n", c.name.c_str(), c.ts_ns / 1e3, c.value);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name) : name_(name) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  start_ns_ = t.NowNs();
  prev_ = tl_open;
  id_ = t.Open(&parent_);
}

Span::~Span() {
  if (id_ == 0) return;
  Tracer& t = Tracer::Get();
  t.Close(name_, id_, parent_, start_ns_);
  tl_open = prev_;
  if (tl_main) t.main_open_.store(prev_);
}

}  // namespace perfbench
