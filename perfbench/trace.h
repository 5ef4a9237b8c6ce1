#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t SteadyNanos();

/// In-memory span store for the traced run. Spans are recorded only by
/// the benchmark's own code, around public calls into the program:
/// name, start, end, the span that caused it, and an id that ties the
/// spans of one request or tick together. Nothing is written until
/// WriteJson at exit. A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Per-name totals; self time is each span's duration minus the part
  /// of it that its child spans cover (overlapping children once).
  struct LayerRow {
    std::string name;
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Stops recording without dropping what was recorded (a traced run
  /// turns recording on only for the last quarter of its window).
  void set_recording(bool on) { recording_.store(enabled_ && on); }
  bool recording() const { return recording_.load(); }

  uint64_t NextId() { return next_id_.fetch_add(1); }
  void Record(const char* name, uint64_t id, uint64_t parent,
              int64_t start_ns, int64_t end_ns);

  /// Sum of durations of every span named `name`, in microseconds.
  double TotalMicros(const std::string& name) const;
  int64_t Count(const std::string& name) const;

  std::vector<LayerRow> SelfTimes() const;

  /// Writes every span as one JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> next_id_{1};
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records one span over its own lifetime when the tracer is recording.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t id = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_;
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
