#ifndef GSN_VSENSOR_VIRTUAL_SENSOR_H_
#define GSN_VSENSOR_VIRTUAL_SENSOR_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gsn/sql/executor.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/telemetry/tracing.h"
#include "gsn/util/clock.h"
#include "gsn/vsensor/spec.h"
#include "gsn/vsensor/stream_source.h"

namespace gsn::vsensor {

/// A deployed virtual sensor: the paper's central abstraction (§2).
/// Owns its stream sources and runs the five processing steps of §3
/// whenever a source delivers new elements:
///
///   1. new elements are timestamped with the container's local clock
///      if the producer did not stamp them;
///   2. per source, the window (count- or time-based) is selected and
///      unnested into a flat relation;
///   3. each source's SQL runs over its window (relation WRAPPER) into
///      a temporary relation named by the source alias;
///   4. the input stream's SQL runs over the temporary relations;
///   5. each result row becomes an output stream element, mapped to the
///      declared output structure, delivered to all registered
///      listeners (storage, notification, remote consumers).
///
/// The sensor is driven by Tick(now) — the input stream manager polls
/// all sources and triggers processing. Thread-compatible: the owning
/// container serializes Ticks per sensor (possibly on its life-cycle
/// thread pool).
class VirtualSensor {
 public:
  using OutputListener =
      std::function<void(const VirtualSensor&, const StreamElement&)>;
  /// Receives every output element of one pipeline run in a single
  /// call, in production order. A batch listener sees exactly the
  /// elements the per-element listeners see, but with one invocation
  /// per trigger instead of one per element — consumers that take a
  /// lock or fan out per call (storage insert, continuous queries)
  /// amortize it over the batch.
  using BatchListener = std::function<void(const VirtualSensor&,
                                           const std::vector<StreamElement>&)>;
  /// Fired when one trigger's processing fails, with the input stream
  /// that failed and the elements admitted for that trigger (the
  /// suspects). The supervisor quarantines them; the sensor itself just
  /// reports and moves on to its next stream.
  using ErrorListener =
      std::function<void(const VirtualSensor&, const std::string& stream_name,
                         const Status&, const std::vector<StreamElement>&)>;

  /// `sources[i]` holds the running sources of `spec.input_streams[i]`,
  /// in the same order as the spec's sources. The sensor registers its
  /// per-sensor metric family (label sensor=<name>) in `metrics` at
  /// construction — the default registry when none is injected; the
  /// owning container removes the family at undeploy.
  /// A non-null `tracer` makes every trigger whose admitted elements
  /// carry a trace context run under a "vsensor.pipeline" span (child
  /// of the triggering element's span), with per-stage child spans and
  /// the pipeline context stamped onto every output element. The same
  /// scopes time the per-sensor latency histograms, on the tracer's
  /// clock (steady wall clock without a tracer).
  VirtualSensor(VirtualSensorSpec spec,
                std::vector<std::vector<std::unique_ptr<StreamSource>>> sources,
                std::shared_ptr<Clock> clock,
                telemetry::MetricRegistry* metrics = nullptr,
                telemetry::Tracer* tracer = nullptr, std::string node = "");

  VirtualSensor(const VirtualSensor&) = delete;
  VirtualSensor& operator=(const VirtualSensor&) = delete;

  Status Start();
  void Stop();

  /// Polls every source and runs the pipeline for each input stream
  /// that received data. Returns the number of output elements
  /// produced. Errors from a stream's SQL abort that trigger but are
  /// reported once and do not wedge the sensor.
  Result<int> Tick(Timestamp now);

  /// Registers a consumer of the output stream (paper §3 step 5: "all
  /// consumers of the virtual sensor are notified of the new stream
  /// element").
  void AddListener(OutputListener listener);
  /// Registers a per-trigger batch consumer (see BatchListener).
  void AddBatchListener(BatchListener listener);
  /// Registers the supervisor's poison-tuple hook (see ErrorListener).
  void SetErrorListener(ErrorListener listener);

  /// Pumps every source's wrapper into its admission queue without
  /// running the pipeline — keeps data flowing (and shed policies
  /// engaged) while the supervisor has this sensor paused for restart.
  Status PumpSources(Timestamp now);

  /// Drain gate forwarded to every source (see
  /// StreamSource::SetAdmitting).
  void SetAdmitting(bool admitting);
  /// Elements waiting across all sources' admission queues.
  size_t QueueDepth() const;
  /// Shed events across all sources.
  int64_t ShedCount() const;
  /// Whether any source's admission queue is at capacity (readiness
  /// probe input).
  bool AnyQueueFull() const;

  const VirtualSensorSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  const Schema& output_schema() const { return spec_.output_structure; }

  /// Source handle for stream-quality manipulation in demos and tests
  /// (returns nullptr if unknown).
  StreamSource* FindSource(const std::string& stream_name,
                           const std::string& alias);

  /// Pipeline counters. Since the telemetry subsystem landed this is a
  /// point-in-time view assembled from the sensor's registered metrics
  /// (kept for API compatibility); the counters themselves live in the
  /// MetricRegistry under the sensor=<name> label.
  struct Stats {
    int64_t triggers = 0;          // input batches processed
    int64_t produced = 0;          // output elements emitted
    int64_t rate_limited = 0;      // outputs dropped by the rate bound
    int64_t errors = 0;            // failed pipeline runs
    /// Wall-clock processing time (steady clock), for Fig 3.
    int64_t total_processing_micros = 0;
    int64_t last_processing_micros = 0;
  };
  Stats stats() const;

  /// The per-trigger processing-latency distribution (Fig 3's series).
  telemetry::Histogram::Snapshot processing_histogram() const {
    return metrics_.processing->TakeSnapshot();
  }

 private:
  struct StreamRuntime {
    const InputStreamSpec* spec;
    std::vector<std::unique_ptr<StreamSource>> sources;
    std::unique_ptr<sql::SelectStmt> query;          // parsed stream query
    std::vector<std::unique_ptr<sql::SelectStmt>> source_queries;
    // Token bucket for the rate bound.
    double tokens = 0;
    Timestamp last_refill = 0;
  };

  /// Runs steps 2-5 for one input stream. `trace` is the pipeline
  /// span's context (invalid when untraced); stage spans are its
  /// children and output elements are stamped with it.
  Result<int> ProcessStream(StreamRuntime* stream, Timestamp now,
                            const TraceContext& trace);

  /// Maps one result row to the declared output structure.
  Result<StreamElement> MapToOutput(const Schema& result_schema,
                                    const Relation::Row& row, Timestamp now);

  /// The sensor's slice of the metric registry, resolved once at
  /// construction so hot-path updates are single relaxed atomics.
  struct SensorMetrics {
    std::shared_ptr<telemetry::Counter> triggers;
    std::shared_ptr<telemetry::Counter> tuples;
    std::shared_ptr<telemetry::Counter> rate_limited;
    std::shared_ptr<telemetry::Counter> errors;
    std::shared_ptr<telemetry::Gauge> last_processing;
    std::shared_ptr<telemetry::Histogram> processing;
    /// Pipeline stage latencies (paper §3 steps 2/3, 4, 5).
    std::shared_ptr<telemetry::Histogram> stage_window;
    std::shared_ptr<telemetry::Histogram> stage_stream_sql;
    std::shared_ptr<telemetry::Histogram> stage_deliver;
    /// Elements admitted per pipeline trigger (how much each batched
    /// run amortizes the per-trigger SQL cost).
    std::shared_ptr<telemetry::Histogram> batch_size;
  };

  const VirtualSensorSpec spec_;
  std::vector<StreamRuntime> streams_;
  std::shared_ptr<Clock> clock_;
  telemetry::Tracer* tracer_ = nullptr;
  std::string node_;
  /// Private registry when none was injected (standalone sensors in
  /// tests keep per-instance stats).
  std::unique_ptr<telemetry::MetricRegistry> owned_metrics_;
  SensorMetrics metrics_;

  mutable std::mutex mu_;
  std::vector<OutputListener> listeners_;
  std::vector<BatchListener> batch_listeners_;
  ErrorListener error_listener_;
  bool missing_column_warned_ = false;
};

}  // namespace gsn::vsensor

#endif  // GSN_VSENSOR_VIRTUAL_SENSOR_H_
