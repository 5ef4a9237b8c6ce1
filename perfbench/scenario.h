#ifndef PERFBENCH_SCENARIO_H_
#define PERFBENCH_SCENARIO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/container/web_interface.h"
#include "gsn/network/epoll_transport.h"
#include "gsn/telemetry/metrics.h"
#include "trace.h"

namespace perfbench {

/// The shape of one workload. Every workload runs the same system: a
/// producer container ("node-a") with local generator sensors, chained
/// wrapper="local" sensors, continuous queries, a 1 Hz history sensor
/// behind an HTTP front end, and published sensors that a consumer
/// container ("node-b") mirrors over loopback TCP. The workloads differ
/// in where the load sits.
struct WorkloadSpec {
  std::string name;
  int local_sensors = 0;    // generator sensors with permanent storage
  int chained = 0;          // wrapper="local" sensors fed by local ones
  int continuous = 0;       // continuous queries over local sensors
  int published = 0;        // generator sensors mirrored on node-b
  int history_minutes = 1;  // 1 Hz history preloaded during set-up
  int history_payload = 1024;
  int history_memory_s = 60;  // retention window; older rows go columnar
  int query_connections = 1;  // for the open-loop stream
};

/// Everything the program receives, generated from the workload seed.
struct Inputs {
  struct Sensor {
    std::string name;
    std::string xml;
    std::string source;  // the sensor a derived one copies; "" for roots
  };
  Sensor history;
  std::vector<Sensor> local;     // dev*, then chain*
  std::vector<Sensor> published;  // pub* (node-a)
  std::vector<Sensor> mirrors;    // mir* (node-b), same order as pub*
  std::vector<std::string> continuous;  // continuous query texts
  std::vector<Sensor> capacity_fill;    // extra generators, capacity only
  uint64_t query_seed = 0;
};

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed);

/// One query of the fig4 family, plus the parameters the oracle needs.
struct QueryParams {
  gsn::Timestamp lo = 0;  // timed > lo
  gsn::Timestamp hi = 0;  // timed <= hi
  double threshold = 0;   // value > threshold
  int64_t stride = 1;     // seq % stride = 0
  std::string sql;
};

/// Tick workers of the traced run's sharded capacity figure: half the
/// cores of the 4-core machine the sizes were chosen on.
constexpr int kTickWorkers = 2;

/// Fewest generator sensors the closed-loop capacity phase runs.
constexpr int kCapacitySensors = 64;

/// Generator element interval of every ingest sensor.
constexpr gsn::Timestamp kElementInterval = 10 * gsn::kMicrosPerMilli;

/// Mean generator payload of every ingest sensor; the seed varies each
/// sensor's by up to a quarter either way.
constexpr int kPayloadBytes = 64;

/// Open-loop HTTP queries per second, in every workload.
constexpr double kQueryRate = 60;

/// Notification record of one sensor: the exactly-once check per
/// (sensor, seq), latency samples from the element's due time, and for
/// the history sensor the delivered rows the query oracle recomputes
/// answers from.
class SensorLog {
 public:
  struct Row {
    gsn::Timestamp timed;
    int64_t seq;
    double value;
  };

  SensorLog(std::string name, gsn::Timestamp interval, bool starts_at_zero,
            bool keep_rows);

  const std::string& name() const { return name_; }
  gsn::Timestamp interval() const { return interval_; }

  /// Called from the container's notification fan-out.
  void OnElement(const gsn::Schema& schema, const gsn::StreamElement& e,
                 gsn::Timestamp now, gsn::Timestamp window_start,
                 gsn::Timestamp window_end);

  struct Tally {
    int64_t delivered = 0;
    int64_t duplicates = 0;
    int64_t skipped = 0;  // seqs passed over (superseded, shed or lost)
    int64_t first_seq = -1;
    int64_t next_seq = -1;
    gsn::Timestamp anchor = 0;  // due time of seq 0
    gsn::Timestamp last_timed = 0;
  };
  Tally tally() const;

  /// (due time, latency) samples, micros, of elements due in the window.
  /// A seq that never reaches the notification because a later one
  /// superseded it (see README.md, "Superseded elements") is charged the
  /// latency up to the notification of the element that superseded it.
  using Sample = std::pair<gsn::Timestamp, int64_t>;
  std::vector<Sample> TakeLatencies();

  /// When seq `seq` was notified (micros), or -1 if it was not.
  gsn::Timestamp NotifiedAt(int64_t seq) const;

  /// Latest delivered `timed` (0 before the first element).
  gsn::Timestamp last_timed() const;

  /// count(*), avg(value), max(seq) over delivered rows matching `q`.
  struct Answer {
    int64_t count = 0;
    double avg = 0;
    int64_t max_seq = 0;
  };
  Answer Reference(const QueryParams& q) const;

  /// Producer-notify -> this-notify micros per element (mirrors).
  void AddDeliverySample(gsn::Timestamp timed, int64_t micros);
  std::vector<Sample> TakeDeliverySamples();

 private:
  const std::string name_;
  const gsn::Timestamp interval_;
  const bool starts_at_zero_;
  const bool keep_rows_;
  mutable std::mutex mu_;
  Tally tally_;                        // guarded by mu_
  std::vector<Sample> latencies_;      // guarded by mu_
  std::vector<gsn::Timestamp> notified_at_;  // by seq; guarded by mu_
  std::vector<Row> rows_;              // guarded by mu_
  std::vector<Sample> delivery_;       // guarded by mu_
  int seq_idx_ = -1;                   // guarded by mu_
  int value_idx_ = -1;                 // guarded by mu_
};

/// SystemClock plus an adjustable offset. Set-up runs the history sensor
/// through its past by stepping the offset up to zero; from then on the
/// clock reads wall time.
class ShiftedClock : public gsn::Clock {
 public:
  gsn::Timestamp NowMicros() const override;
  void set_offset(gsn::Timestamp offset) { offset_.store(offset); }
  gsn::Timestamp offset() const { return offset_.load(); }

 private:
  std::atomic<gsn::Timestamp> offset_{0};
};

/// Layer probes installed only in the traced run: a timing decorator
/// over the generator wrapper and a byte-counting decorator over the
/// producer's peer transport.
struct Probes {
  std::atomic<int64_t> polls{0};
  std::atomic<int64_t> poll_ns{0};
  std::atomic<int64_t> elements{0};
  std::atomic<int64_t> peer_bytes{0};
  std::atomic<uint64_t> current_tick_span{0};
  std::mutex late_mu;
  std::vector<int64_t> late_us;  // guarded by late_mu
};

/// Ticks of the closed-loop capacity phase, in kCapacitySlices equal
/// slices. A fixed amount of work rather than a fixed time: the cost of
/// a tick grows as history piles up (the continuous queries scan it),
/// so in a fixed time a faster run would measure a later, slower state.
constexpr int kCapacitySteps = 2000;
constexpr int kCapacitySlices = 20;

/// Closed-loop ingest capacity: a fresh node-a without network on a
/// virtual clock, stepped one element interval per Tick() as fast as
/// Tick() returns, kCapacitySteps times. No checkpoints: their
/// fsync-bound cost would make the figure track the disk; it shows in
/// storage.checkpoint_ms instead. Returns output elements per wall second
/// of each slice, in order.
gsn::Result<std::vector<double>> MeasureCapacity(const Inputs& inputs,
                                                 const std::string& dir,
                                                 uint64_t seed,
                                                 int tick_workers);

/// Two containers, their transports and the HTTP front end, built and
/// torn down as one unit.
class Scenario {
 public:
  struct Options {
    WorkloadSpec spec;
    Inputs inputs;
    std::string dir;          // storage root, removed on destruction
    uint64_t seed = 1;
    Tracer* tracer = nullptr;  // non-null and enabled: install probes
  };

  explicit Scenario(Options options);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Builds, deploys, preloads, checkpoints and warms up. Failures are
  /// counted in deploy_failures(); a non-OK status means the scenario is
  /// unusable.
  gsn::Status Build();

  /// Drives each container from its own pump thread, like gsnd's
  /// RealtimePump, until `end_ns` (steady clock).
  void PumpUntil(int64_t end_ns);

  /// Checkpoints node-a now and records how long it took. The pump must
  /// not be running.
  void Checkpoint();

  /// Samples count only for elements due in [start, end) (clock micros).
  void SetWindow(gsn::Timestamp start, gsn::Timestamp end);

  gsn::Timestamp NowMicros() const { return clock_->NowMicros(); }
  uint16_t http_port() const { return http_->http_port(); }
  gsn::telemetry::MetricRegistry& producer_metrics() { return metrics_a_; }
  gsn::telemetry::MetricRegistry& consumer_metrics() { return metrics_b_; }
  const Probes& probes() const { return probes_; }
  const Options& options() const { return options_; }

  /// Ingest sensors on node-a (history, local, chained, published) and
  /// the mirrors on node-b.
  std::vector<SensorLog*> ingest_logs();
  std::vector<SensorLog*> mirror_logs();
  SensorLog* history_log() { return logs_.front().get(); }
  SensorLog* log_named(const std::string& name);

  int64_t deploys_attempted() const { return deploys_attempted_; }
  int64_t deploy_failures() const { return deploy_failures_; }
  const std::vector<double>& deploy_ms() const { return deploy_ms_; }
  int64_t continuous_runs() const { return continuous_runs_.load(); }

  /// Tick durations of node-a recorded by the pump while `record_ticks`
  /// is on, and the durations of Checkpoint() calls (micros).
  void set_record_ticks(bool on) { record_ticks_ = on; }
  std::vector<int64_t> TakeTickMicros();
  std::vector<int64_t> TakeCheckpointMicros();

 private:
  gsn::Status DeployOn(gsn::container::Container* c,
                       const Inputs::Sensor& sensor);

  Options options_;
  Probes probes_;
  std::shared_ptr<ShiftedClock> clock_;
  gsn::telemetry::MetricRegistry metrics_a_;
  gsn::telemetry::MetricRegistry metrics_b_;
  std::vector<std::unique_ptr<SensorLog>> logs_;  // hist, local, pub, mir
  std::atomic<gsn::Timestamp> window_start_{0};
  std::atomic<gsn::Timestamp> window_end_{0};
  std::atomic<int64_t> continuous_runs_{0};
  int64_t deploys_attempted_ = 0;
  int64_t deploy_failures_ = 0;
  std::vector<double> deploy_ms_;
  bool record_ticks_ = false;
  std::vector<int64_t> tick_us_;
  std::vector<int64_t> checkpoint_us_;

  // Torn down explicitly in ~Scenario: front end, transports, containers.
  std::unique_ptr<gsn::network::EpollTransport> net_a_;
  std::unique_ptr<gsn::network::EpollTransport> net_b_;
  std::unique_ptr<gsn::network::Transport> counted_a_;
  std::unique_ptr<gsn::container::Container> a_;
  std::unique_ptr<gsn::container::Container> b_;
  std::unique_ptr<gsn::container::WebInterface> web_;
  std::unique_ptr<gsn::network::EpollTransport> http_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SCENARIO_H_
