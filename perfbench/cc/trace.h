#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span tracer for the benchmark's traced run. Spans are recorded
// around the benchmark's own calls into each module (name, start, end,
// parent span, request id), kept in memory, and written at exit as Chrome
// trace-event JSON. Disabled, a Span costs one relaxed atomic load.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct SpanRecord {
    const char* name = "";  // static string: a layer name such as "core.scan"
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t id = 0;
    int64_t parent = 0;   // 0 = root
    int64_t request = 0;  // request the span belongs to
    uint32_t tid = 0;
  };
  struct CounterRecord {
    std::string name;
    int64_t ts_ns = 0;
    double value = 0.0;
  };

  static Tracer& Get();

  /// Turns recording on or off; the calling thread becomes the main
  /// thread whose open span parents spans opened on worker threads.
  void SetEnabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Request id stamped on every span opened from now on.
  void set_request(int64_t request) { request_.store(request); }

  int64_t NowNs() const;

  /// Records a counter sample at the current instant (no-op when off).
  void Count(const std::string& name, double value);

  /// Spans of one request, in recording order.
  std::vector<SpanRecord> SpansOfRequest(int64_t request) const;

  /// Self time per span name over `spans`: each span's duration minus the
  /// part of its interval covered by its children (children on several
  /// worker threads are merged into one covered interval set).
  static std::map<std::string, double> SelfNsByName(
      const std::vector<SpanRecord>& spans);

  /// Writes every span and counter as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

  size_t num_spans() const;
  int64_t dropped() const { return dropped_.load(); }

 private:
  friend class Span;
  Tracer();
  int64_t Open(int64_t* parent_out);
  void Close(const char* name, int64_t id, int64_t parent, int64_t start_ns);

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> request_{0};
  std::atomic<int64_t> next_id_{0};
  std::atomic<int64_t> main_open_{0};  // innermost open span of the main thread
  std::atomic<int64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::vector<CounterRecord> counters_;  // guarded by mu_
};

/// RAII span. `name` must be a string literal (it is stored by pointer).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  int64_t id_ = 0;
  int64_t parent_ = 0;
  int64_t prev_ = 0;  // this thread's open span before this one
  int64_t start_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
