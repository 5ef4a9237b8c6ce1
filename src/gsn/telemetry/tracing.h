#ifndef GSN_TELEMETRY_TRACING_H_
#define GSN_TELEMETRY_TRACING_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "gsn/telemetry/metrics.h"
#include "gsn/util/clock.h"
#include "gsn/util/trace_context.h"

namespace gsn::telemetry {

/// Propagated trace identity — defined in util so the type layer can
/// carry it on stream elements without depending on telemetry.
using TraceContext = ::gsn::TraceContext;

/// One finished span, as stored and exported. A trace is the set of
/// spans sharing (trace_hi, trace_lo); parent_span_id links them into a
/// tree (0 = root span).
struct SpanRecord {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;
  std::string sensor;  ///< virtual sensor involved, if any
  std::string node;    ///< container/node id, if known
  Timestamp start_micros = 0;
  int64_t duration_micros = 0;
  bool error = false;

  std::string TraceIdHex() const;
  std::string SpanIdHex() const;
};

/// Bounded, mutex-protected ring buffer of finished spans. When full,
/// the oldest span is evicted and counted in dropped(). Safe to record
/// into from many threads while another thread snapshots (/traces).
class TraceStore {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit TraceStore(size_t capacity = kDefaultCapacity);

  void Record(SpanRecord record);

  /// All buffered spans, oldest first.
  std::vector<SpanRecord> Snapshot() const;
  /// Spans of one trace, oldest first.
  std::vector<SpanRecord> ForTrace(uint64_t trace_hi, uint64_t trace_lo) const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Spans evicted to make room since construction.
  uint64_t dropped() const;
  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<SpanRecord> ring_;
  uint64_t dropped_ = 0;
};

/// Factory for trace contexts plus the store their spans land in.
///
/// Head sampling: the decision is made once, when a trace is rooted
/// (`StartTrace`), by a deterministic coin derived from the trace id
/// (itself derived from the injected seed), and inherited by every
/// child. With sample_rate 0 (the default) `StartTrace` returns an
/// invalid context and tracing costs one atomic load per tuple. With
/// 0 < rate < 1, unsampled traces still get ids so that a span that
/// finishes with an error is recorded regardless of the coin
/// (always-sample-on-error).
///
/// Thread-safe: id generation is an atomic counter mixed through
/// splitmix64, the rate is an atomic, and the store takes its own lock.
class Tracer {
 public:
  struct Options {
    /// Probability a rooted trace is sampled. 0 disables tracing.
    double sample_rate = 0.0;
    /// Ring capacity of the span store.
    size_t capacity = TraceStore::kDefaultCapacity;
    /// Seed for id generation and the sampling coin; fixed seed + a
    /// single-threaded workload = fully reproducible ids.
    uint64_t seed = 0x6773'6e74'7261'6365;  // "gsntrace"
    /// The clock every Span opened through this tracer reads, for its
    /// histogram observation and its trace record alike; the one place
    /// a test injects a clock into a scope. Null = monotonic
    /// SteadyClock.
    const Clock* clock = nullptr;
  };

  Tracer() : Tracer(Options()) {}
  explicit Tracer(const Options& options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Roots a new trace: fresh 128-bit trace id, a root span id, and the
  /// head-sampling decision. Invalid context when sample_rate is 0.
  TraceContext StartTrace();

  /// Continues `parent` with a fresh span id (same trace id and
  /// sampling decision). Invalid context when the parent is invalid.
  TraceContext ChildOf(const TraceContext& parent);

  void set_sample_rate(double rate);
  double sample_rate() const;

  TraceStore& store() { return store_; }
  const TraceStore& store() const { return store_; }
  const Clock* clock() const { return clock_; }

 private:
  uint64_t NextId();

  TraceStore store_;
  const Clock* const clock_;
  const uint64_t seed_;
  std::atomic<double> sample_rate_;
  std::atomic<uint64_t> counter_{0};
};

/// The one RAII timing scope. It reads its clock once when it opens and
/// once when it finishes, and that one measurement feeds both sinks:
///  - `histogram` (optional) observes the elapsed micros on every
///    finish — the `gsn_*` latency families and the status surface's
///    hot spans read these;
///  - the tracer's store records the span iff its context is valid and
///    either sampled or flagged as an error.
/// The clock is the tracer's (Tracer::Options::clock), or SteadyClock
/// without a tracer. A sampled span binds the thread-local trace
/// context until it goes out of scope, so GSN_LOG lines carry
/// `trace=<id>` — also the ones written after an early Finish(), such
/// as the slow-query warning. A scope with neither a histogram nor a
/// valid trace context is inert and reads no clock — default-constructed
/// spans, a null tracer, an invalid parent — so instrumentation points
/// need no guards.
class Span {
 public:
  Span() = default;
  /// Roots a new trace (see Tracer::StartTrace).
  Span(Tracer* tracer, std::string_view name, Histogram* histogram = nullptr);
  /// Child span continuing `parent`; traces nothing when the parent is
  /// invalid (pass `TraceContext()` for a histogram-only scope).
  Span(Tracer* tracer, std::string_view name, const TraceContext& parent,
       Histogram* histogram = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_sensor(std::string_view sensor);
  void set_node(std::string_view node);
  /// Marks the span failed; error spans are recorded even when the
  /// trace is unsampled.
  void set_error();

  /// This span's context — pass to children / stamp onto elements.
  const TraceContext& context() const { return ctx_; }
  /// True when the span will consider recording (valid context).
  bool active() const { return tracer_ != nullptr; }

  /// Ends the span and returns its elapsed micros; 0 when inert or
  /// already finished (idempotent).
  int64_t Finish();

 private:
  void Open(Tracer* tracer, std::string_view name, TraceContext ctx,
            uint64_t parent_span_id, Histogram* histogram);

  Tracer* tracer_ = nullptr;  ///< non-null only while a trace is open
  Histogram* histogram_ = nullptr;
  const Clock* clock_ = nullptr;  ///< non-null while the scope is timing
  TraceContext ctx_;
  SpanRecord record_;
  TraceContext saved_thread_ctx_;
  bool bound_thread_ = false;
};

/// Renders spans as JSON for GET /api/v1/traces in the uniform list
/// envelope:
/// {"items":[{"trace":"<hex32>","span":"<hex16>","parent":"<hex16|>",
///   "name":...,"sensor":...,"node":...,"start_micros":N,
///   "duration_micros":N,"error":bool}],"total":N,"dropped":N}.
/// `total` counts matching spans before `limit`/`offset` paging;
/// `dropped` counts ring-buffer evictions. A non-empty `trace_id_hex`
/// (32 hex chars) filters to that trace.
std::string RenderTracesJson(const TraceStore& store,
                             std::string_view trace_id_hex = {},
                             size_t limit = std::string::npos,
                             size_t offset = 0);

/// Parses a 32-char lowercase/uppercase hex trace id. Returns false on
/// malformed input.
bool ParseTraceIdHex(std::string_view hex, uint64_t* trace_hi,
                     uint64_t* trace_lo);

}  // namespace gsn::telemetry

#endif  // GSN_TELEMETRY_TRACING_H_
