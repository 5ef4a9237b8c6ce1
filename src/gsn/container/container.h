#ifndef GSN_CONTAINER_CONTAINER_H_
#define GSN_CONTAINER_CONTAINER_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gsn/container/access_control.h"
#include "gsn/container/integrity.h"
#include "gsn/container/local_stream_wrapper.h"
#include "gsn/container/manifest.h"
#include "gsn/container/notification.h"
#include "gsn/container/quarantine.h"
#include "gsn/container/query_manager.h"
#include "gsn/network/circuit_breaker.h"
#include "gsn/network/directory.h"
#include "gsn/network/protocol.h"
#include "gsn/network/remote_stream_wrapper.h"
#include "gsn/network/replay_buffer.h"
#include "gsn/network/retry_policy.h"
#include "gsn/network/transport.h"
#include "gsn/storage/columnar/catalog.h"
#include "gsn/storage/persistence_log.h"
#include "gsn/storage/table.h"
#include "gsn/telemetry/profiler.h"
#include "gsn/util/thread_pool.h"
#include "gsn/vsensor/descriptor_parser.h"
#include "gsn/vsensor/virtual_sensor.h"
#include "gsn/wrappers/system_wrapper.h"
#include "gsn/wrappers/wrapper.h"

namespace gsn::container {

/// A GSN container (paper Fig 2): hosts a pool of virtual sensors and
/// every service around them — the virtual sensor manager with its
/// life-cycle and input stream management, the storage layer, the query
/// manager (processor + repository), the notification manager, access
/// control, data integrity, and the peer-to-peer interface.
///
/// The container is driven by Tick(): it polls every sensor's sources,
/// runs pipelines, retries pending remote subscriptions, and enforces
/// lifetime bounds. With a VirtualClock this is fully deterministic;
/// live deployments call RunFor()/pump Tick from a thread.
///
/// Concurrency model (docs/CONCURRENCY.md). Deployments are
/// partitioned into N shards by hash of the lowercased sensor name;
/// each shard owns its deployment map, the WAL handles of its sensors,
/// and an instrumented TimedMutex (lock="shard-<i>"). Tick() fans one
/// drain task per shard out over a shared worker pool; per-sensor tick
/// exclusivity across concurrent Tick() drivers is a per-deployment
/// busy flag, not a global mutex. Lock-ordering rules:
///
///  - A shard lock may be held while taking LEAF locks only (a table,
///    a stream source queue, the quarantine store, the manifest, the
///    segment catalog, the metric registry, the snapshot cache).
///  - Never shard -> shard: cross-shard operations (GetStatus,
///    Checkpoint, snapshots, AnnounceAll, Shutdown) visit shards one
///    at a time, releasing each before the next.
///  - fed_mu_ ("federation": subscribers, remote subscriptions, peers,
///    pending publishes) and chain_mu_ ("chaining": the local-wrapper
///    fan-out map) are siblings of the shard locks: never held
///    together with one another or with a shard lock — every path
///    acquires them sequentially, never nested.
///  - chain_mu_ is held ACROSS LocalStreamWrapper::PushBatch so a
///    producer's fan-out can never race Undeploy destroying the
///    consumer; wrapper pushes only take source-queue leaf locks.
///  - snapshot_mu_ stays a leaf: system wrappers scrape the cached
///    snapshot without touching any shard/federation lock.
class Container : public network::NetworkNode {
 public:
  struct Options {
    std::string node_id = "gsn-node";
    std::shared_ptr<Clock> clock;           // default: shared SystemClock
    uint64_t seed = 1;                      // drives wrappers & sampling
    std::string storage_dir;                // "" disables permanent storage
    /// Crash-recovery root (--data-dir): holds the container manifest
    /// (and, when storage_dir is empty, the per-sensor persistence
    /// logs). A container constructed over a non-empty data_dir replays
    /// the manifest and redeploys every sensor that was live at the
    /// crash. "" disables the manifest entirely.
    std::string data_dir;
    /// Optional P2P fabric: the deterministic NetworkSimulator in
    /// tests, an EpollTransport over real sockets in gsnd deployments.
    network::Transport* network = nullptr;
    std::string integrity_key = "gsn-demo-key";
    /// Metric registry shared by every component the container owns
    /// (query manager, notification manager, sensors, sources). Null =
    /// the container creates and owns a private one — see metrics().
    telemetry::MetricRegistry* metrics = nullptr;
    /// Tracer shared by the whole tuple path (sources, sensors,
    /// notifications, query manager, remote delivery). A federation
    /// injects one tracer into all its nodes so cross-container traces
    /// land in one store. Its clock also times every latency histogram
    /// of that path and of the tick. Null = the container owns a private
    /// tracer — see tracer(). Sampling starts off (rate 0); enable via
    /// tracer()->set_sample_rate or the `trace` management command.
    telemetry::Tracer* tracer = nullptr;
    /// Knobs of the federation resilience layer (docs/FEDERATION.md).
    /// The defaults suit second-scale links; chaos tests tighten them.
    struct Resilience {
      /// Liveness beacon broadcast period; also the spacing between
      /// circuit-breaker failure marks while a peer stays silent.
      Timestamp heartbeat_interval = kMicrosPerSecond;
      /// Peer silence beyond this starts accumulating breaker failures.
      Timestamp peer_timeout = 3 * kMicrosPerSecond;
      /// StreamTip (delivery high-water mark) period per subscription.
      Timestamp tip_interval = kMicrosPerSecond;
      /// An acked subscription whose stream goes silent this long —
      /// no admissible delivery and no credible tip — while its peer
      /// still answers heartbeats is assumed lost on a restarted
      /// producer (subscriber tables are not durable): the consumer
      /// rebinds it under a fresh id. The clock only runs against a
      /// live peer, so partitions and crashes pace by breaker/failover
      /// instead. Must comfortably exceed tip_interval; 0 disables.
      Timestamp subscription_silence_timeout = 10 * kMicrosPerSecond;
      /// Byte budget of each subscriber's producer-side replay buffer.
      size_t replay_buffer_bytes = 1 << 20;
      /// Extra directory-publish rounds after a deploy (anti-entropy
      /// re-announcement covers steady state).
      int publish_rounds = 3;
      /// Default backoff policy for subscribe/replay/publish retries;
      /// per-source `retry-*` predicates override it.
      network::RetryPolicy retry;
      network::CircuitBreaker::Config circuit;
    } resilience;
    /// Knobs of the supervised sensor lifecycle and overload
    /// protection (docs/DURABILITY.md).
    struct Supervision {
      /// Backoff between supervised sensor restarts; Exhausted() =>
      /// the sensor is marked FAILED and stops being scheduled.
      network::RetryPolicy retry;
      /// A restarted sensor that completes this many ticks without
      /// failing gets its restart budget back (restart_attempts resets
      /// to 0): retry.max_attempts caps CONSECUTIVE failures, so a
      /// handful of transient errors spread over weeks can never
      /// permanently FAIL a sensor. 0 disables the reset.
      int healthy_ticks_to_reset = 10;
      /// Default admission-queue bound per stream source (descriptor
      /// attribute queue-capacity overrides per source).
      int64_t queue_capacity = 4096;
      /// Default shed policy when an admission queue fills (descriptor
      /// attribute shed-policy overrides per source).
      vsensor::ShedPolicy shed_policy = vsensor::ShedPolicy::kDropOldest;
      /// Dead-letter store bound; oldest evicted beyond it.
      size_t quarantine_capacity = 256;
      /// Period of the WAL + manifest checkpoint; 0 disables automatic
      /// checkpoints (the `checkpoint` management command still works).
      Timestamp checkpoint_interval = 30 * kMicrosPerSecond;
    } supervision;
    /// Knobs of the tiered columnar history (docs/STORAGE.md). With a
    /// durability root (data_dir or storage_dir) present, checkpoints
    /// flush rows falling out of each permanent sensor's retention
    /// window into immutable columnar segments instead of discarding
    /// them; SQL then scans segments + live window as one relation.
    struct Columnar {
      /// False keeps the pre-tiered behaviour: evicted rows are gone.
      bool enabled = true;
      /// Rows per column-chunk group inside a segment — the zone-map
      /// pruning granularity.
      size_t rows_per_chunk = 1024;
      /// Bound on rows parked per table between a window eviction and
      /// the checkpoint flush; oldest dropped (and counted) beyond it.
      size_t max_pending_rows = 1 << 18;
    } columnar;
    /// Knobs of the sharded container core (docs/CONCURRENCY.md).
    struct Sharding {
      /// Number of deployment shards (hash of lowercased sensor name).
      /// 0 = hardware concurrency. Each shard owns its deployment map,
      /// its sensors' WAL handles, and its own instrumented TimedMutex,
      /// so deploy/undeploy/tick/checkpoint on different shards never
      /// contend.
      int shards = 0;
      /// Worker threads Tick() fans the per-shard drain tasks over.
      /// 0 = one per shard. 1 keeps the drain sequential (deterministic
      /// ordering for tests that need it).
      int tick_workers = 0;
    } sharding;
  };

  explicit Container(Options options);
  ~Container() override;

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  const std::string& node_id() const { return options_.node_id; }
  Clock* clock() const { return options_.clock.get(); }
  /// The registry all of this container's telemetry lands in (the one
  /// from Options, or the container-owned default). Rendered by the web
  /// interface's GET /metrics and the management `metrics` command.
  telemetry::MetricRegistry* metrics() const { return metrics_; }
  /// The tracer behind the container's tuple-path spans (the one from
  /// Options, or the container-owned default). Rendered by GET /traces
  /// and the management `traces` command.
  telemetry::Tracer* tracer() const { return tracer_; }

  // -- Deployment (the paper's headline feature) --------------------------

  /// Deploys a virtual sensor from its XML descriptor; wires wrappers,
  /// storage, directory publication, everything. `api_key` is checked
  /// against the access-control layer when enabled.
  Result<vsensor::VirtualSensor*> Deploy(const std::string& descriptor_xml,
                                         const std::string& api_key = "");
  Result<vsensor::VirtualSensor*> DeploySpec(vsensor::VirtualSensorSpec spec,
                                             const std::string& api_key = "");
  Status Undeploy(const std::string& sensor_name,
                  const std::string& api_key = "");
  std::vector<std::string> ListSensors() const;
  vsensor::VirtualSensor* FindSensor(const std::string& sensor_name) const;

  // -- Runtime --------------------------------------------------------------

  /// One scheduling round at the clock's current time. Returns the
  /// number of output elements produced across all sensors. Sensor
  /// failures do not propagate: the supervisor pauses the offending
  /// sensor for a backoff (its sources keep pumping into their
  /// admission queues) and marks it FAILED once restarts are exhausted.
  Result<int> Tick();

  // -- Durability & supervised lifecycle (docs/DURABILITY.md) --------------

  /// The supervisor's view of one sensor.
  enum class SensorState { kRunning = 0, kRestarting = 1, kFailed = 2 };
  static const char* SensorStateName(SensorState state);

  /// Checkpoint: compacts the container manifest to the live deploy
  /// set and rewrites every permanent sensor's WAL to its table's
  /// retention window, bounding recovery to O(window). Runs
  /// automatically every supervision.checkpoint_interval; callable any
  /// time (management `checkpoint`).
  Status Checkpoint();

  /// Graceful drain: stop admitting new wrapper load, flush what the
  /// admission queues already hold through the pipelines, checkpoint,
  /// and fsync every log. After Shutdown the destructor tears sensors
  /// down WITHOUT recording manifest undeploys, so a restart over the
  /// same data_dir redeploys them.
  Status Shutdown();
  bool draining() const;

  /// Liveness/readiness for the Kubernetes-style probes. Not-ready
  /// reasons: draining, a FAILED or restarting sensor, an admission
  /// queue at capacity.
  struct Health {
    bool live = true;
    bool ready = true;
    std::vector<std::string> reasons;
  };
  Health GetHealth() const;

  /// Dead-letter store of poison tuples (null only before construction
  /// completes).
  QuarantineStore& quarantine() { return *quarantine_; }
  const QuarantineStore& quarantine() const { return *quarantine_; }
  /// Takes quarantined tuple `id` and re-injects it into its
  /// originating stream source for the next poll (at-least-once).
  Status RequeueQuarantined(uint64_t id);

  /// The crash-recovery manifest (null when data_dir is empty).
  ContainerManifest* manifest() const { return manifest_.get(); }
  /// The tiered columnar history catalog (docs/STORAGE.md); null when
  /// columnar.enabled is false or no durability root is configured.
  storage::columnar::SegmentCatalog* segment_catalog() const {
    return segments_.get();
  }
  /// Manifest events replayed by the constructor's recovery pass.
  size_t recovered_records() const { return recovered_records_; }
  /// Sensors the recovery pass failed to redeploy (kept in the
  /// manifest; they retry on the next restart).
  size_t recovery_failures() const { return recovery_failures_; }

  // -- Queries & subscriptions ----------------------------------------------

  /// One-shot SQL over the sensor output tables (each deployed sensor's
  /// history is a table named after it).
  Result<Relation> Query(const std::string& sql_text,
                         const std::string& api_key = "");

  QueryManager& query_manager() { return query_manager_; }
  /// Resolver backing Query(): catalog tables (gsn_sensors,
  /// gsn_wrappers, gsn_directory) plus every sensor output table.
  const sql::TableResolver& catalog_resolver() const { return catalog_; }
  NotificationManager& notification_manager() { return notifications_; }
  AccessControl& access_control() { return access_control_; }
  const IntegrityService& integrity() const { return integrity_; }
  storage::TableManager& table_manager() { return tables_; }
  wrappers::WrapperRegistry& wrapper_registry() { return registry_; }

  // -- Discovery --------------------------------------------------------------

  /// Queries this node's directory replica by predicate combination.
  std::vector<network::DirectoryEntry> Discover(
      const std::map<std::string, std::string>& query) const;

  /// Rebroadcasts every locally hosted sensor's directory entry (used
  /// when a node joins the federation after deploys happened).
  void AnnounceAll();

  // -- network::NetworkNode ----------------------------------------------------

  void OnMessage(const network::Message& message) override;

  // -- Introspection ------------------------------------------------------------

  /// One edge of the container's data-flow graph: device wrappers into
  /// sensors, sensors into remote subscriber nodes.
  struct TopologyEdge {
    std::string from;
    std::string to;
    std::string label;
  };
  /// The container's current stream topology (for visualization).
  std::vector<TopologyEdge> Topology();

  struct SensorStatus {
    std::string name;
    vsensor::VirtualSensor::Stats stats;
    size_t stored_rows = 0;
    size_t stored_bytes = 0;
    int pool_size = 0;
    int64_t remote_subscribers = 0;
    SensorState state = SensorState::kRunning;
    int restart_attempts = 0;
    size_t queue_depth = 0;  // summed over the sensor's sources
    int64_t shed = 0;        // summed over the sensor's sources
  };
  Result<SensorStatus> GetSensorStatus(const std::string& sensor_name) const;

  /// Health of one known federation peer (everything this node has
  /// ever heard from), as exposed by /api/v1/peers and the `peers`
  /// management command.
  struct PeerStatus {
    std::string node_id;
    std::string circuit;  // "closed" | "open" | "half-open"
    Timestamp last_seen = 0;
    int64_t circuit_opened_total = 0;
  };
  std::vector<PeerStatus> PeerStatuses() const;

  /// Contention stats of one instrumented container lock.
  struct LockStats {
    std::string name;
    int64_t acquisitions = 0;
    int64_t contended = 0;
    int64_t wait_micros = 0;
  };

  /// One timed region of the tick or batch path, read off its
  /// histogram (`gsn_tick_micros` / `gsn_tick_phase_micros`).
  struct HotSpan {
    std::string name;
    int64_t count = 0;
    int64_t total_micros = 0;
    int64_t max_micros = 0;
  };

  /// Per-shard view of the sharded core: population, drain work, and
  /// the shard lock's contention profile — makes hot shards
  /// attributable from /api/v1/status and the `status` command.
  struct ShardStatus {
    int index = 0;
    size_t sensors = 0;
    /// Sensor pipeline drains executed by this shard's tick workers.
    int64_t ticks_total = 0;
    int64_t lock_acquisitions = 0;
    int64_t lock_contended = 0;
    int64_t lock_wait_micros = 0;
  };

  /// The unified machine-readable snapshot behind GET /api/v1/status
  /// and the argument-less management `status` command: sensors,
  /// queues, locks, hot spans, segments, peers, and build info joined
  /// into one view.
  struct ContainerStatus {
    std::string node_id;
    std::string version;
    std::string compiler;
    bool draining = false;
    Health health;
    /// Aggregate runtime/scheduling totals (same struct the
    /// wrapper="system" telemetry stream emits).
    wrappers::SystemSnapshot totals;
    std::vector<SensorStatus> sensors;
    std::vector<ShardStatus> shards;
    std::vector<PeerStatus> peers;
    std::vector<LockStats> locks;
    /// The tick/batch spans with any observations, by total time
    /// descending.
    std::vector<HotSpan> hot_spans;
    size_t recovered_records = 0;
    size_t recovery_failures = 0;
  };
  ContainerStatus GetStatus() const;

  /// The health snapshot `wrapper="system"` sources scrape. Reads a
  /// cache refreshed once per Tick under its own small lock — never
  /// the container or tick locks — so a virtual sensor deployed over
  /// its own container's metrics cannot deadlock or self-amplify.
  wrappers::SystemSnapshot SystemSnapshotNow() const;

  /// The transport this container is attached to (null when
  /// standalone). `AsSimulator()` gates the simulator-only chaos
  /// controls; real transports return nullptr there.
  network::Transport* network() const { return options_.network; }

  /// Resolved shard count (Options::Sharding::shards, 0 = hardware
  /// concurrency at construction).
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Shard index hosting `sensor_name` (hash of the lowercased name).
  int ShardIndexFor(const std::string& sensor_name) const;

 private:
  /// Everything owned on behalf of one deployed sensor (the life-cycle
  /// manager's bookkeeping). Mutable fields are guarded by the owning
  /// shard's lock; fields set before publication (key, sensor, table,
  /// local_sources, system_sources, deployed_at, expires_at) are
  /// immutable afterwards and safe to read off-lock.
  struct Deployment {
    std::string key;  // lowercased sensor name; shard-map key
    std::unique_ptr<vsensor::VirtualSensor> sensor;
    storage::Table* table = nullptr;  // owned by tables_
    /// Guarded by the shard lock: OnSensorBatch (tick workers) appends
    /// and Checkpoint() destroys/replaces the handle, both under the
    /// shard lock, so an append can never race a compaction swap
    /// (PersistenceLog::Rewrite requires the prior handle gone first).
    std::unique_ptr<storage::PersistenceLog> log;
    Timestamp deployed_at = 0;
    Timestamp expires_at = 0;  // 0 = never
    /// Per-sensor tick exclusivity (guarded by the shard lock): a tick
    /// worker sets it before draining this sensor and clears it after,
    /// so concurrent Tick() drivers skip rather than double-drain, and
    /// Undeploy waits on the shard's idle_cv until it clears before
    /// stopping the sensor — the lifetime barrier that used to be the
    /// per-sensor pool Shutdown().
    bool busy = false;
    // -- Supervision (docs/DURABILITY.md) --------------------------------
    SensorState state = SensorState::kRunning;
    int restart_attempts = 0;
    /// Ticks completed without failing since the last restart; at
    /// supervision.healthy_ticks_to_reset the restart budget is
    /// restored, so restart_attempts meters consecutive failures
    /// rather than lifetime totals.
    int healthy_ticks = 0;
    /// While kRestarting: the tick time at which processing resumes.
    Timestamp resume_at = 0;
    std::shared_ptr<telemetry::Gauge> state_gauge;
    std::shared_ptr<telemetry::Counter> restarts;
    /// wrapper="local" sources of this sensor (listeners detached at
    /// undeploy).
    std::vector<LocalStreamWrapper*> local_sources;
    /// wrapper="system" sources of this sensor; while any deployment
    /// has one, Tick() refreshes the snapshot cache they scrape.
    int system_sources = 0;
  };

  /// One partition of the deployment map. The shard lock guards the
  /// map and every mutable Deployment field of its members; WAL
  /// appends and checkpoint swaps of this shard's sensors run under
  /// it. Instrumented as lock="shard-<index>" with a shard label, so
  /// gsn_lock_wait_micros{lock="shard-<i>"} attributes contention per
  /// shard.
  struct Shard {
    int index = 0;
    mutable telemetry::TimedMutex mu;
    /// Signalled whenever a busy flag clears; Undeploy's barrier.
    std::condition_variable_any idle_cv;
    /// Lowercased sensor name -> deployment. shared_ptr: a tick worker
    /// pins the deployment it is draining, so Undeploy erasing the map
    /// entry can never free a sensor mid-tick.
    std::map<std::string, std::shared_ptr<Deployment>> deployments;
    /// Supervision backoff jitter (guarded by mu).
    Rng rng{1};
    // gsn_shard_* telemetry (docs/TELEMETRY.md).
    std::shared_ptr<telemetry::Gauge> sensors_gauge;
    std::shared_ptr<telemetry::Counter> ticks_total;
    std::shared_ptr<telemetry::Gauge> lock_wait_gauge;
  };

  /// A remote consumer of one of our sensors — the producer half of
  /// the resilient delivery protocol: a dense per-subscription sequence
  /// plus a bounded replay buffer serving NACKs.
  struct RemoteSubscriber {
    std::string sensor_name;
    std::string subscriber_node;
    uint64_t next_seq = 1;  // next sequence number to assign
    network::ReplayBuffer replay;
  };

  /// The consumer half of one of our subscriptions on a remote
  /// producer: subscribe-retry state until acked, then NACK pacing for
  /// gap repair, and enough context (predicates, owning deployment) to
  /// fail over to another matching producer when the peer's circuit
  /// opens.
  struct RemoteSubscription {
    network::RemoteStreamWrapper* wrapper = nullptr;  // owned by the sensor
    std::string deployment_key;  // lowercased owning sensor name
    std::string peer_node;       // current producer node
    std::map<std::string, std::string> predicates;  // discovery query
    network::RetryPolicy retry;
    bool acked = false;
    int subscribe_attempts = 0;
    Timestamp next_subscribe_at = 0;
    /// NACK pacing: attempts count only while the missing set is
    /// static — any progress (a range filled or split) resets them.
    std::vector<network::SeqRange> last_missing;
    int nack_attempts = 0;
    Timestamp next_nack_at = 0;
    /// Last proof the producer still carries this subscription: an
    /// ack, an admissible delivery, or a tip at/ahead of our cursor.
    /// Stale duplicates don't count — a restarted producer replays a
    /// fresh sequence space below our cursor, and that must read as
    /// silence, not liveness.
    Timestamp last_activity = 0;
  };

  /// Heartbeat-driven liveness of one federation peer.
  struct PeerState {
    Timestamp last_seen = 0;
    Timestamp last_failure_mark = 0;
    network::CircuitBreaker breaker;
    std::shared_ptr<telemetry::Gauge> circuit_gauge;
  };

  /// A directory publish still owed its retry rounds. Carries a copy
  /// of the spec so the resilience round (which holds fed_mu_) never
  /// has to reach into a shard's deployment map; Undeploy purges the
  /// entry by key.
  struct PendingPublish {
    std::string key;  // lowercased sensor name
    vsensor::VirtualSensorSpec spec;
    int round = 1;
    Timestamp next_at = 0;
  };

  /// One message to emit once mu_ is released (send-outside-lock
  /// discipline). Empty `to` means broadcast.
  struct Outbound {
    std::string to;
    std::string topic;
    std::string payload;
  };

  /// Builds the wrapper for one source; for wrapper="remote" this
  /// resolves the predicates against the directory replica, issues the
  /// subscription, and records the id in subs_by_deployment_ (under
  /// fed_mu_). `deployment_key` is the lowercased owning sensor name
  /// (failover bookkeeping for remote sources).
  Result<std::unique_ptr<wrappers::Wrapper>> MakeWrapperForSource(
      const vsensor::StreamSourceSpec& source_spec,
      const std::string& deployment_key, Deployment* deployment);
  void PublishSensor(const vsensor::VirtualSensorSpec& spec);
  void RetractSensor(const std::string& sensor_name);
  /// Drops every federation-side record of `key`'s deployment under
  /// fed_mu_ (its remote subscriptions, its pending publish rounds)
  /// and returns the cancelled subscription ids so the caller can
  /// broadcast unsubscribes outside the lock. Used by Undeploy and by
  /// DeploySpec's failure unwind.
  std::vector<std::string> CancelSubscriptionsFor(const std::string& key);

  /// Shard hosting `key` (hash of the lowercased sensor name).
  Shard& ShardFor(const std::string& key) const;
  /// Drains one shard at `now`: collects runnable deployments under
  /// the shard lock (setting busy flags), runs their pipelines outside
  /// it, then clears the flags and does the supervision bookkeeping.
  /// Returns elements produced. Runs on a tick_pool_ worker (or inline
  /// with a single shard).
  int TickShard(Shard& shard, Timestamp now);

  // -- Resilience layer (docs/FEDERATION.md) -------------------------------

  /// One maintenance round: heartbeat broadcast, peer failure marks
  /// and circuit transitions, subscribe retries, NACK rounds + gap
  /// abandonment, producer tips, and directory-publish retries. All
  /// federation state lives under fed_mu_; sends happen after release.
  void RunResilience(Timestamp now);
  /// Records liveness evidence for `from` (any received message).
  /// Returns true when this is the first evidence of the peer — on a
  /// real transport that triggers a directory re-announce so a peer
  /// that started (or restarted) after our publish rounds can still
  /// discover us.
  bool NotePeerAlive(const std::string& from, Timestamp now);
  /// Records transport-reported failure evidence (dial failure, reset,
  /// write error) against `peer`'s circuit breaker. Fired from the
  /// transport's event-loop thread on real transports; no-op for peers
  /// the resilience layer has never heard from (pre-contact dial
  /// retries are the transport's own business) and for non-node peer
  /// ids such as raw "ip:port" addresses of unidentified connections.
  void NotePeerError(const std::string& peer, const Status& error);
  PeerState& PeerStateLocked(const std::string& peer, Timestamp now);
  /// Whether traffic to `peer` may flow (circuit closed or probing).
  bool PeerAllowsSendLocked(const std::string& peer, Timestamp now);
  /// Re-resolves `sub`'s predicates against the directory, excluding
  /// open-circuit peers, and rebinds the wrapper onto a new producer
  /// under a fresh subscription id. Returns the sends it queued; false
  /// when no alternative producer matches.
  bool TryFailoverLocked(const std::string& old_id, Timestamp now,
                         std::vector<Outbound>* sends);
  /// Rebinds a silent-but-acked subscription onto the SAME peer under
  /// a fresh id with a reset sequence space: the producer answers
  /// heartbeats but no longer streams, which after a crash/restart
  /// means its (non-durable) subscriber table lost us. Re-subscribing
  /// under the old id would collide our high sequence cursor with the
  /// restarted producer's fresh one, so a new id it is.
  void RestartSubscriptionLocked(const std::string& old_id, Timestamp now,
                                 std::vector<Outbound>* sends);
  /// Consumes one pipeline trigger's output batch: single-lock table
  /// insert, local chaining, persistence, notification fan-out, one
  /// continuous-query evaluation pass, and per-element signed remote
  /// delivery.
  void OnSensorBatch(const vsensor::VirtualSensor& sensor,
                     const std::vector<StreamElement>& batch);

  // -- Supervision & recovery (docs/DURABILITY.md) --------------------------

  /// Records one failure of `key`'s sensor: pauses it for the retry
  /// policy's backoff, or marks it FAILED once the budget is spent.
  void HandleSensorFailure(const std::string& key, const Status& status,
                           Timestamp now);
  /// VirtualSensor::ErrorListener target — quarantines the failing
  /// trigger's elements, then hands the failure to the supervisor.
  void OnSensorError(const std::string& key,
                     const vsensor::VirtualSensor& sensor,
                     const std::string& stream_name, const Status& status,
                     const std::vector<StreamElement>& elements);
  /// Constructor-time crash recovery: opens the manifest under
  /// data_dir, replays its events, and redeploys the live set.
  void RecoverFromManifest();

  // -- Self-observation (docs/TELEMETRY.md) ---------------------------------

  /// Assembles a fresh SystemSnapshot (visits each shard lock and
  /// fed_mu_ one at a time; sums metric families). Called from Tick()
  /// to refresh the scrape cache and from GetStatus().
  wrappers::SystemSnapshot ComputeSystemSnapshot() const;
  /// Recomputes the snapshot cache system wrappers read. Skipped
  /// entirely while no wrapper="system" source is deployed, so the
  /// feature costs nothing when unused.
  void RefreshSystemSnapshot();

  /// System catalog exposed to SQL: virtual tables describing the
  /// container itself, falling back to the sensor output tables.
  class CatalogResolver : public sql::TableResolver {
   public:
    explicit CatalogResolver(Container* container) : container_(container) {}
    Result<Relation> GetTable(const std::string& name) const override;
    /// Sensor output tables get the tiered scan (segments + pending +
    /// live, zone-map pruned); the gsn_* virtual tables are built fresh
    /// per query and ignore the predicate.
    Result<Relation> GetTableFiltered(const std::string& name,
                                      const sql::ScanPredicate& predicate,
                                      sql::ScanStats* stats) const override;

   private:
    Container* container_;
  };

  Options options_;
  /// Private registry when Options.metrics was null; metrics_ points at
  /// whichever registry is live and is what members below register in,
  /// so these two must precede them in declaration order.
  std::unique_ptr<telemetry::MetricRegistry> owned_metrics_;
  telemetry::MetricRegistry* metrics_ = nullptr;
  /// Private tracer when Options.tracer was null; same ordering
  /// constraint as the registry (members below hold tracer_).
  std::unique_ptr<telemetry::Tracer> owned_tracer_;
  telemetry::Tracer* tracer_ = nullptr;
  std::shared_ptr<telemetry::Gauge> sensors_deployed_;
  wrappers::WrapperRegistry registry_;
  storage::TableManager tables_;
  CatalogResolver catalog_{this};
  QueryManager query_manager_;
  NotificationManager notifications_;
  AccessControl access_control_;
  IntegrityService integrity_;
  network::DirectoryService directory_;

  /// The sharded deployment core (see the class comment for the lock
  /// ordering). Sized at construction; the vector itself is immutable
  /// afterwards, so indexing it is lock-free.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Workers Tick() fans the per-shard drain tasks over. Shared by
  /// every concurrent Tick() driver; per-sensor busy flags keep the
  /// drains exclusive per sensor, not per driver.
  std::unique_ptr<ThreadPool> tick_pool_;
  /// Total deployments across shards (backs gsn_sensors_deployed).
  std::atomic<int64_t> total_deployments_{0};

  /// The federation lock (lock="federation"): guards subscribers_,
  /// remote_subs_, subs_by_deployment_, peers_, pending_publishes_,
  /// the announce/heartbeat/tip clocks, and resilience_rng_. Never
  /// held together with a shard lock or chain_mu_.
  mutable telemetry::TimedMutex fed_mu_;
  std::map<std::string, RemoteSubscriber> subscribers_;  // by subscription id
  /// Subscriptions we hold on remote producers, by our subscription id.
  std::map<std::string, RemoteSubscription> remote_subs_;
  /// Deployment key -> the subscription ids its remote sources hold
  /// (cancelled at undeploy; re-keyed on failover). Lives here rather
  /// than in Deployment so failover under fed_mu_ never has to take a
  /// shard lock.
  std::map<std::string, std::vector<std::string>> subs_by_deployment_;
  /// Federation peers we have heard from, with their circuit breakers.
  std::map<std::string, PeerState> peers_;
  std::vector<PendingPublish> pending_publishes_;
  int64_t next_subscription_ = 1;  // guarded by fed_mu_
  std::atomic<uint64_t> wrapper_seed_counter_{0};
  /// Anti-entropy: directory entries are re-broadcast periodically so
  /// peers converge even when individual publish messages are lost.
  Timestamp last_announce_ = 0;   // guarded by fed_mu_
  Timestamp last_heartbeat_ = 0;  // guarded by fed_mu_
  Timestamp last_tip_ = 0;        // guarded by fed_mu_
  uint64_t heartbeat_beat_ = 0;   // guarded by fed_mu_
  Rng resilience_rng_{1};  // backoff jitter; reseeded from options_.seed

  /// The chaining lock (lock="chaining"): guards local_wrappers_ and
  /// is held across PushBatch fan-out, so a push can never race the
  /// consumer's Undeploy (which detaches its wrappers under this lock
  /// before stopping the sensor). PushBatch only takes source-queue
  /// leaf locks, so holding chain_mu_ across it is cycle-free.
  mutable telemetry::TimedMutex chain_mu_;
  /// Local chaining: producer sensor (lowercased) -> consumer wrappers.
  std::multimap<std::string, LocalStreamWrapper*> local_wrappers_;
  // Federation resilience telemetry (docs/FEDERATION.md).
  std::shared_ptr<telemetry::Counter> fed_retries_subscribe_;
  std::shared_ptr<telemetry::Counter> fed_retries_replay_;
  std::shared_ptr<telemetry::Counter> fed_retries_publish_;
  std::shared_ptr<telemetry::Counter> fed_gaps_;
  std::shared_ptr<telemetry::Counter> fed_dups_;
  std::shared_ptr<telemetry::Counter> fed_replays_;
  std::shared_ptr<telemetry::Counter> fed_abandoned_;
  std::shared_ptr<telemetry::Counter> fed_failovers_;
  std::shared_ptr<telemetry::Counter> fed_resubscribes_;
  std::shared_ptr<telemetry::Gauge> replay_bytes_;

  // -- Durability & supervision (docs/DURABILITY.md) ------------------------
  std::unique_ptr<ContainerManifest> manifest_;  // null without data_dir
  /// Tiered columnar history (docs/STORAGE.md); null when disabled or
  /// no durability root exists. Declared before recovery runs so
  /// redeployed sensors can dedup pending rows against it.
  std::unique_ptr<storage::columnar::SegmentCatalog> segments_;
  std::unique_ptr<QuarantineStore> quarantine_;
  /// True while the constructor replays the manifest: redeploys must
  /// not append fresh manifest events.
  bool recovering_ = false;
  /// True once Shutdown()/the destructor begins teardown: those
  /// undeploys are process exit, not operator intent, so they must NOT
  /// record manifest undeploy events (the sensors come back on
  /// restart).
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> draining_{false};
  /// Guards only the checkpoint trigger clock: concurrent Tick()
  /// drivers race to it with try_lock, so at most one runs the
  /// periodic checkpoint and the rest skip instead of queueing.
  std::mutex checkpoint_mu_;
  Timestamp last_checkpoint_ = 0;  // guarded by checkpoint_mu_
  size_t recovered_records_ = 0;
  size_t recovery_failures_ = 0;
  std::shared_ptr<telemetry::Gauge> recovery_records_gauge_;
  std::shared_ptr<telemetry::Gauge> recovery_seconds_gauge_;

  // -- Self-observation (docs/TELEMETRY.md) ---------------------------------
  /// Tick-phase breakdown + batch storage/fan-out spans, always on;
  /// GetStatus() derives the hot spans from these.
  std::shared_ptr<telemetry::Histogram> tick_micros_;
  std::shared_ptr<telemetry::Histogram> tick_phase_resilience_;
  std::shared_ptr<telemetry::Histogram> tick_phase_dispatch_;
  std::shared_ptr<telemetry::Histogram> tick_phase_checkpoint_;
  std::shared_ptr<telemetry::Histogram> batch_storage_micros_;
  std::shared_ptr<telemetry::Histogram> batch_fanout_micros_;
  std::shared_ptr<telemetry::Gauge> build_info_;
  std::shared_ptr<telemetry::Gauge> uptime_gauge_;
  /// Steady-clock construction anchor for uptime.
  int64_t started_steady_micros_ = 0;
  /// Count of deployed wrapper="system" sources; refresh gate.
  std::atomic<int64_t> system_sources_total_{0};
  /// Guards ONLY the snapshot cache below; leaf lock. The cache
  /// readers (system wrappers mid-tick) never take any shard or
  /// federation lock, so no cycle is possible.
  mutable std::mutex snapshot_mu_;
  wrappers::SystemSnapshot system_snapshot_;  // guarded by snapshot_mu_
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_CONTAINER_H_
