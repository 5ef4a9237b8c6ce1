#ifndef GSN_VSENSOR_STREAM_SOURCE_H_
#define GSN_VSENSOR_STREAM_SOURCE_H_

#include <deque>
#include <memory>
#include <mutex>

#include "gsn/storage/window_buffer.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/telemetry/profiler.h"
#include "gsn/telemetry/tracing.h"
#include "gsn/util/rng.h"
#include "gsn/vsensor/spec.h"
#include "gsn/wrappers/wrapper.h"

namespace gsn::vsensor {

/// One running stream source: a wrapper plus the stream-quality
/// machinery of the input stream manager (paper §4: "the input stream
/// manager ... manages the input streams and ensures stream quality
/// (disconnections, unexpected delays, missing values)").
///
/// Per element, in order:
///   0. admission queue — wrapper output lands in a bounded FIFO
///      between the wrapper and the pipeline (overload protection,
///      paper §3: "avoid overloads"); a full queue sheds per the
///      configured ShedPolicy (drop-oldest / drop-newest / block —
///      block stops polling the wrapper, i.e. upstream backpressure in
///      this pull-based design);
///   1. sampling  — admit with probability `sampling-rate` (paper §3:
///      "sampling of data streams in order to reduce the data rate");
///   2. disconnect handling — while disconnected, admitted elements go
///      to a bounded FIFO (`disconnect-buffer`); on reconnect they are
///      replayed ahead of new data, oldest dropped on overflow;
///   3. windowing — admitted elements enter the source's count/time
///      window, the relation its SQL sees as WRAPPER.
class StreamSource {
 public:
  /// Registers per-wrapper-type telemetry (poll-loop latency, elements
  /// produced) in `metrics`, defaulting to the process registry. When a
  /// `tracer` is given, every admitted element is stamped with a trace
  /// context: a fresh root trace ("wrapper.produce") for untraced
  /// elements, or a "source.admit" child span when the element already
  /// carries one (remote deliveries continuing the producer's trace).
  /// The poll-loop histogram is timed on the tracer's clock (steady
  /// wall clock without a tracer).
  StreamSource(StreamSourceSpec spec, std::unique_ptr<wrappers::Wrapper> wrapper,
               uint64_t seed, telemetry::MetricRegistry* metrics = nullptr,
               telemetry::Tracer* tracer = nullptr, std::string node = "");

  StreamSource(const StreamSource&) = delete;
  StreamSource& operator=(const StreamSource&) = delete;

  Status Start() { return wrapper_->Start(); }
  void Stop() { wrapper_->Stop(); }

  /// Resolves the admission queue bound and shed policy: the spec's
  /// own values when set, otherwise the container defaults given here.
  /// `sensor` labels the queue-depth series so the container can drop
  /// it at undeploy. Call once at deploy, before the first Poll.
  void ConfigureAdmission(const std::string& sensor, int64_t default_capacity,
                          ShedPolicy default_policy,
                          telemetry::MetricRegistry* metrics = nullptr);

  /// Pumps the wrapper into the admission queue and drains the queue
  /// through the admission pipeline. Returns the elements newly
  /// admitted to the window at this poll (the pipeline triggers on
  /// them).
  Result<std::vector<StreamElement>> Poll(Timestamp now);

  /// Pumps the wrapper into the admission queue WITHOUT draining it —
  /// used while the owning sensor is paused for a supervised restart,
  /// so backlog builds observably (and sheds per policy) instead of
  /// stalling or silently vanishing.
  Status Pump(Timestamp now);

  /// Queues an element for re-admission ahead of new data on the next
  /// Poll (quarantine requeue). Bypasses sampling and disconnect
  /// handling — the element already passed both once — so delivery is
  /// at-least-once.
  void Inject(const StreamElement& element);

  /// Drain gate: while false, Poll stops pumping the wrapper (no new
  /// load admitted) but keeps draining what is already queued.
  void SetAdmitting(bool admitting);
  bool admitting() const;

  /// The window contents as a flat relation (schema: timed + wrapper
  /// schema), i.e. the WRAPPER relation of the source query.
  Relation WindowRelation(Timestamp now) const;

  /// Simulates link loss/recovery for this source.
  void SetConnected(bool connected);
  bool connected() const;

  const StreamSourceSpec& spec() const { return spec_; }
  const wrappers::Wrapper& wrapper() const { return *wrapper_; }
  wrappers::Wrapper* mutable_wrapper() { return wrapper_.get(); }

  // -- Stream-quality counters ------------------------------------------
  int64_t admitted_count() const;
  int64_t sampled_out_count() const;
  int64_t dropped_disconnected_count() const;
  int64_t filled_missing_count() const;

  // -- Overload-protection introspection --------------------------------
  size_t queue_depth() const;
  int64_t shed_count() const;
  int64_t queue_capacity() const;
  ShedPolicy shed_policy() const;

 private:
  /// One admission-queue slot: the element plus its steady-clock
  /// enqueue stamp, so the drain observes real queue-wait time
  /// (gsn_queue_wait_micros) even when the container runs on a
  /// VirtualClock.
  struct QueuedElement {
    StreamElement element;
    int64_t enqueued_micros = 0;
  };

  /// Wrapper → admission queue under the shed policy. Returns the
  /// number of elements enqueued (0 when blocked or not admitting).
  Result<int> PumpLocked(Timestamp now,
                         std::unique_lock<telemetry::TimedMutex>* lock);
  /// Stamps/continues trace contexts on the elements admitted this
  /// poll (no-op without a tracer).
  void StampTraces(std::vector<StreamElement>* admitted);

  const StreamSourceSpec spec_;
  std::unique_ptr<wrappers::Wrapper> wrapper_;
  storage::WindowBuffer window_;
  Rng rng_;
  telemetry::Tracer* tracer_ = nullptr;
  std::string node_;
  std::unique_ptr<telemetry::MetricRegistry> owned_metrics_;
  std::shared_ptr<telemetry::Histogram> poll_micros_;
  std::shared_ptr<telemetry::Counter> produced_total_;

  /// Instrumented at ConfigureAdmission so deployed sources report
  /// admission-lock contention (lock="admission") to the profiler.
  mutable telemetry::TimedMutex mu_;
  bool connected_ = true;
  std::deque<StreamElement> disconnect_buffer_;
  int64_t admitted_ = 0;
  int64_t sampled_out_ = 0;
  int64_t dropped_disconnected_ = 0;
  int64_t filled_missing_ = 0;
  /// Last non-NULL value per column (fill-missing="last").
  std::vector<Value> last_known_;

  // -- Overload protection ----------------------------------------------
  /// Wrapper output waiting for the pipeline (bounded by
  /// queue_capacity_ under shed_policy_).
  std::deque<QueuedElement> admission_queue_;
  /// Requeued quarantine elements, admitted ahead of the queue.
  std::deque<StreamElement> injected_;
  /// 0 = unbounded (standalone sources, before ConfigureAdmission);
  /// deployed sources always get a positive bound.
  int64_t queue_capacity_ = 0;
  ShedPolicy shed_policy_ = ShedPolicy::kDropOldest;
  bool admitting_ = true;
  int64_t shed_ = 0;
  std::shared_ptr<telemetry::Counter> shed_total_;   // label policy=
  std::shared_ptr<telemetry::Gauge> depth_gauge_;    // labels sensor=,source=
  /// Time elements spend queued between wrapper and pipeline
  /// (labels sensor=,source=); null until ConfigureAdmission.
  std::shared_ptr<telemetry::Histogram> queue_wait_micros_;
};

}  // namespace gsn::vsensor

#endif  // GSN_VSENSOR_STREAM_SOURCE_H_
