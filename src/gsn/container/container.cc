#include "gsn/container/container.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <thread>

#include "gsn/sql/parser.h"
#include "gsn/util/logging.h"
#include "gsn/util/strings.h"

namespace gsn::container {

using network::DirectoryEntry;
using network::Message;
using network::RemoteStreamWrapper;
using vsensor::StreamSource;
using vsensor::VirtualSensor;
using vsensor::VirtualSensorSpec;

Container::Container(Options options)
    : options_(std::move(options)),
      owned_metrics_(options_.metrics == nullptr
                         ? std::make_unique<telemetry::MetricRegistry>()
                         : nullptr),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_metrics_.get()),
      owned_tracer_(options_.tracer == nullptr
                        ? std::make_unique<telemetry::Tracer>()
                        : nullptr),
      tracer_(options_.tracer != nullptr ? options_.tracer
                                         : owned_tracer_.get()),
      query_manager_(&catalog_, metrics_),
      notifications_(metrics_, tracer_),
      integrity_(options_.integrity_key) {
  if (options_.clock == nullptr) options_.clock = SystemClock::Shared();
  query_manager_.set_tracer(tracer_);
  sensors_deployed_ = metrics_->GetGauge(
      "gsn_sensors_deployed", {{"node", options_.node_id}},
      "Virtual sensors currently deployed on this node");
  const telemetry::Labels node_label = {{"node", options_.node_id}};
  fed_retries_subscribe_ = metrics_->GetCounter(
      "gsn_federation_retries_total",
      {{"node", options_.node_id}, {"kind", "subscribe"}},
      "Federation retry rounds by kind (subscribe/replay/publish)");
  fed_retries_replay_ = metrics_->GetCounter(
      "gsn_federation_retries_total",
      {{"node", options_.node_id}, {"kind", "replay"}},
      "Federation retry rounds by kind (subscribe/replay/publish)");
  fed_retries_publish_ = metrics_->GetCounter(
      "gsn_federation_retries_total",
      {{"node", options_.node_id}, {"kind", "publish"}},
      "Federation retry rounds by kind (subscribe/replay/publish)");
  fed_gaps_ = metrics_->GetCounter(
      "gsn_federation_gaps_total", node_label,
      "Stream deliveries that arrived behind a sequence gap");
  fed_dups_ = metrics_->GetCounter(
      "gsn_federation_dups_total", node_label,
      "Duplicate stream deliveries dropped by receiver-side dedup");
  fed_replays_ = metrics_->GetCounter(
      "gsn_federation_replays_total", node_label,
      "Deliveries re-sent from replay buffers in response to NACKs");
  fed_abandoned_ = metrics_->GetCounter(
      "gsn_federation_abandoned_total", node_label,
      "Missing sequences given up on after replay retries exhausted");
  fed_failovers_ = metrics_->GetCounter(
      "gsn_federation_failovers_total", node_label,
      "Remote sources rebound to an alternative producer");
  fed_resubscribes_ = metrics_->GetCounter(
      "gsn_federation_resubscribes_total", node_label,
      "Silent subscriptions re-established on a restarted producer");
  replay_bytes_ = metrics_->GetGauge(
      "gsn_replay_buffer_bytes", node_label,
      "Bytes currently held across producer-side replay buffers");
  // The sharded deployment core (docs/CONCURRENCY.md): resolve the
  // shard count, build the shards, and instrument every lock before
  // any other thread can touch the container.
  int num_shards = options_.sharding.shards;
  if (num_shards <= 0) {
    num_shards =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  int tick_workers = options_.sharding.tick_workers;
  if (tick_workers <= 0) tick_workers = num_shards;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    const std::string shard_label = std::to_string(i);
    shard->mu.Instrument(
        metrics_, "shard-" + shard_label,
        {{"node", options_.node_id}, {"shard", shard_label}});
    shard->rng =
        Rng(options_.seed * 2654435761u + 97 + static_cast<uint64_t>(i));
    shard->sensors_gauge = metrics_->GetGauge(
        "gsn_shard_sensors",
        {{"node", options_.node_id}, {"shard", shard_label}},
        "Virtual sensors currently hosted by this shard");
    shard->ticks_total = metrics_->GetCounter(
        "gsn_shard_ticks_total",
        {{"node", options_.node_id}, {"shard", shard_label}},
        "Sensor pipeline drains executed by this shard's tick workers");
    shard->lock_wait_gauge = metrics_->GetGauge(
        "gsn_shard_lock_wait_micros",
        {{"node", options_.node_id}, {"shard", shard_label}},
        "Cumulative micros spent blocked on this shard's lock");
    shards_.push_back(std::move(shard));
  }
  if (num_shards > 1) tick_pool_ = std::make_unique<ThreadPool>(tick_workers);
  fed_mu_.Instrument(metrics_, "federation", node_label);
  chain_mu_.Instrument(metrics_, "chaining", node_label);
  tick_micros_ = metrics_->GetHistogram("gsn_tick_micros", node_label,
                                        "Container Tick() wall time");
  const char* phase_help =
      "Per-tick latency breakdown by scheduling phase (resilience / "
      "dispatch / checkpoint) plus the pool-thread storage and fan-out "
      "spans";
  tick_phase_resilience_ = metrics_->GetHistogram(
      "gsn_tick_phase_micros",
      {{"node", options_.node_id}, {"phase", "resilience"}}, phase_help);
  tick_phase_dispatch_ = metrics_->GetHistogram(
      "gsn_tick_phase_micros",
      {{"node", options_.node_id}, {"phase", "dispatch"}}, phase_help);
  tick_phase_checkpoint_ = metrics_->GetHistogram(
      "gsn_tick_phase_micros",
      {{"node", options_.node_id}, {"phase", "checkpoint"}}, phase_help);
  batch_storage_micros_ = metrics_->GetHistogram(
      "gsn_tick_phase_micros",
      {{"node", options_.node_id}, {"phase", "storage"}}, phase_help);
  batch_fanout_micros_ = metrics_->GetHistogram(
      "gsn_tick_phase_micros",
      {{"node", options_.node_id}, {"phase", "fanout"}}, phase_help);
  build_info_ = metrics_->GetGauge(
      "gsn_build_info",
      {{"node", options_.node_id},
       {"version", telemetry::BuildVersion()},
       {"compiler", telemetry::BuildCompiler()}},
      "Build metadata carried in labels; the value is always 1");
  build_info_->Set(1);
  uptime_gauge_ = metrics_->GetGauge(
      "gsn_uptime_seconds", node_label,
      "Seconds since this container was constructed (steady clock)");
  started_steady_micros_ = telemetry::SteadyClock::Instance()->NowMicros();
  resilience_rng_ = Rng(options_.seed * 65537 + 17);
  wrappers::WrapperRegistry::RegisterBuiltins(&registry_);
  quarantine_ = std::make_unique<QuarantineStore>(
      options_.supervision.quarantine_capacity, metrics_);
  recovery_records_gauge_ = metrics_->GetGauge(
      "gsn_recovery_records", node_label,
      "Manifest events replayed by the last crash-recovery pass");
  recovery_seconds_gauge_ = metrics_->GetGauge(
      "gsn_recovery_seconds", node_label,
      "Wall-clock seconds the last crash-recovery pass took (floored)");
  if (options_.network != nullptr) {
    const Status s = options_.network->RegisterNode(options_.node_id, this);
    if (!s.ok()) {
      GSN_LOG(kError, "container")
          << options_.node_id << ": network registration failed: " << s;
    }
    // Real transports report per-peer failures (dial errors, resets,
    // write-queue overflows) asynchronously; feed them to the circuit
    // breakers so a dead peer trips its circuit from hard evidence, not
    // just heartbeat silence. The simulator delivers inline under
    // virtual time and keeps its deterministic failure model instead.
    if (options_.network->AsSimulator() == nullptr) {
      options_.network->SetErrorCallback(
          [this](const std::string& peer, const Status& error) {
            NotePeerError(peer, error);
          });
    }
  }
  last_checkpoint_ = options_.clock->NowMicros();
  // Without an explicit storage_dir both the per-sensor persistence
  // logs and the columnar history land under data_dir, so --data-dir
  // alone is a complete durability root.
  if (options_.storage_dir.empty()) options_.storage_dir = options_.data_dir;
  // The history tier opens before manifest recovery: redeployed sensors
  // dedup their WAL-replayed pending rows against already-flushed
  // segments (see DeploySpec).
  if (options_.columnar.enabled && !options_.storage_dir.empty()) {
    storage::columnar::SegmentCatalog::Options seg_options;
    seg_options.rows_per_chunk = options_.columnar.rows_per_chunk;
    seg_options.metrics = metrics_;
    seg_options.labels = node_label;
    Result<std::unique_ptr<storage::columnar::SegmentCatalog>> catalog =
        storage::columnar::SegmentCatalog::Open(
            options_.storage_dir + "/segments", seg_options);
    if (!catalog.ok()) {
      GSN_LOG(kError, "container")
          << options_.node_id << ": cannot open segment catalog: "
          << catalog.status() << "; history tier disabled";
    } else {
      segments_ = *std::move(catalog);
      tables_.AttachHistory(segments_.get());
      if (segments_->discarded_on_recovery() > 0 ||
          segments_->orphans_removed() > 0) {
        GSN_LOG(kWarn, "container")
            << options_.node_id << ": segment recovery discarded "
            << segments_->discarded_on_recovery() << " torn segment(s), "
            << segments_->orphans_removed() << " orphan file(s)";
      }
    }
  }
  if (!options_.data_dir.empty()) RecoverFromManifest();
}

Container::~Container() {
  // Process teardown, not operator intent: undeploys below must not
  // record manifest undeploy events (the sensors come back on restart).
  shutting_down_.store(true, std::memory_order_release);
  // Stop sensors before members are torn down. Undeploy waits out any
  // tick worker still inside a sensor (busy-flag barrier).
  std::vector<std::string> names = ListSensors();
  for (const std::string& name : names) {
    const Status s = Undeploy(name);
    (void)s;
  }
  // Quiesce the tick workers before shards/members are destroyed.
  if (tick_pool_ != nullptr) tick_pool_->Shutdown();
  if (options_.network != nullptr) {
    // The transport outlives the container in gsnd: drop our error
    // callback before teardown so a late event-loop notification cannot
    // call into a destroyed container.
    if (options_.network->AsSimulator() == nullptr) {
      options_.network->SetErrorCallback(nullptr);
    }
    (void)options_.network->UnregisterNode(options_.node_id);
  }
}

const char* Container::SensorStateName(SensorState state) {
  switch (state) {
    case SensorState::kRunning:
      return "running";
    case SensorState::kRestarting:
      return "restarting";
    case SensorState::kFailed:
      return "failed";
  }
  return "running";
}

void Container::RecoverFromManifest() {
  const int64_t recovery_start = telemetry::SteadyClock::Instance()->NowMicros();
  std::error_code ec;
  std::filesystem::create_directories(options_.data_dir, ec);
  if (ec) {
    GSN_LOG(kError, "container")
        << options_.node_id << ": cannot create data dir '"
        << options_.data_dir << "': " << ec.message();
    return;
  }
  const std::string path = options_.data_dir + "/manifest.gsnlog";
  bool torn = false;
  Result<std::vector<ContainerManifest::Event>> events =
      ContainerManifest::Recover(path, &torn);
  if (!events.ok()) {
    GSN_LOG(kError, "container")
        << options_.node_id << ": manifest unreadable: " << events.status();
    return;
  }
  if (torn) {
    GSN_LOG(kWarn, "container")
        << options_.node_id << ": manifest had a torn tail; recovered "
        << events->size() << " events";
  }
  Result<std::unique_ptr<ContainerManifest>> manifest =
      ContainerManifest::Open(path);
  if (!manifest.ok()) {
    GSN_LOG(kError, "container")
        << options_.node_id << ": cannot open manifest: " << manifest.status();
    return;
  }
  manifest_ = *std::move(manifest);

  recovering_ = true;
  const std::vector<std::pair<std::string, std::string>> live =
      ContainerManifest::LiveSet(*events);
  for (const auto& [name, xml] : live) {
    Result<VirtualSensor*> redeployed = Deploy(xml);
    if (!redeployed.ok()) {
      ++recovery_failures_;
      GSN_LOG(kError, "container")
          << options_.node_id << ": recovery redeploy of '" << name
          << "' failed: " << redeployed.status();
    }
  }
  recovering_ = false;
  recovered_records_ = events->size();
  recovery_records_gauge_->Set(static_cast<int64_t>(recovered_records_));
  recovery_seconds_gauge_->Set(
      (telemetry::SteadyClock::Instance()->NowMicros() - recovery_start) /
      kMicrosPerSecond);
  if (!live.empty() || torn) {
    GSN_LOG(kInfo, "container")
        << options_.node_id << ": recovered " << live.size() - recovery_failures_
        << "/" << live.size() << " sensors from " << recovered_records_
        << " manifest event(s)";
  }
}

// ---------------------------------------------------------------- Deploy

Result<VirtualSensor*> Container::Deploy(const std::string& descriptor_xml,
                                         const std::string& api_key) {
  GSN_ASSIGN_OR_RETURN(VirtualSensorSpec spec,
                       vsensor::ParseDescriptor(descriptor_xml));
  return DeploySpec(std::move(spec), api_key);
}

Result<VirtualSensor*> Container::DeploySpec(VirtualSensorSpec spec,
                                             const std::string& api_key) {
  GSN_RETURN_IF_ERROR(access_control_.Check(api_key, Permission::kDeploy));
  GSN_RETURN_IF_ERROR(spec.Validate());
  const std::string key = StrToLower(spec.name);
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    if (shard.deployments.count(key)) {
      return Status::AlreadyExists("sensor already deployed: " + spec.name);
    }
  }

  // Storage: the sensor's output history as a SQL-visible table.
  GSN_ASSIGN_OR_RETURN(
      storage::Table * table,
      tables_.CreateTable(spec.name, spec.output_structure,
                          spec.storage.history));
  // Undo table creation (and any remote subscriptions already issued
  // for earlier sources) on any later failure.
  auto unwind = [&] {
    (void)tables_.DropTable(spec.name);
    const std::vector<std::string> cancelled = CancelSubscriptionsFor(key);
    if (options_.network != nullptr) {
      for (const std::string& id : cancelled) {
        network::UnsubscribeRequest cancel;
        cancel.subscription_id = id;
        (void)options_.network->Broadcast(options_.clock->NowMicros(),
                                          options_.node_id,
                                          network::kTopicUnsubscribe,
                                          cancel.Encode());
      }
    }
  };

  Deployment deployment;
  deployment.key = key;
  deployment.table = table;

  // Permanent storage: open the per-sensor log and replay history.
  if (spec.storage.permanent && !options_.storage_dir.empty()) {
    const std::string path =
        options_.storage_dir + "/" + StrToLower(spec.name) + ".gsnlog";
    // Capture must be on before WAL replay: rows the replay pushes out
    // of the retention window are exactly the ones the next checkpoint
    // owes the history tier (or, post-crash, the ones to dedup below).
    if (segments_ != nullptr) {
      table->EnableHistoryCapture(options_.columnar.max_pending_rows);
    }
    bool truncated = false;
    Result<std::vector<StreamElement>> recovered =
        storage::PersistenceLog::Recover(path, &truncated);
    if (!recovered.ok()) {
      unwind();
      return recovered.status();
    }
    for (const StreamElement& e : *recovered) {
      const Status s = table->Insert(e);
      if (!s.ok()) {
        GSN_LOG(kWarn, "container")
            << spec.name << ": skipping incompatible recovered element: " << s;
      }
    }
    if (truncated) {
      GSN_LOG(kWarn, "container")
          << spec.name << ": persistence log had a torn tail; recovered "
          << recovered->size() << " elements";
    }
    // Window/segment seam dedup: a crash between a segment flush and
    // the WAL rewrite leaves the flushed rows in both tiers. The rows
    // the replay just pushed out of the retention window are pending
    // again; walk this table's segments oldest-first and drop every
    // pending prefix whose content CRC matches a segment, restoring
    // exactly-once across the seam.
    if (segments_ != nullptr && table->history_capture_enabled()) {
      const Relation::RowList pending = table->PendingEvictedRows();
      size_t offset = 0;
      for (const storage::columnar::SegmentMeta& meta :
           segments_->SegmentsFor(key)) {
        const size_t n = static_cast<size_t>(meta.row_count);
        if (n == 0 || offset + n > pending.size()) continue;
        Relation::RowList prefix(pending.begin() + offset,
                                 pending.begin() + offset + n);
        if (storage::columnar::RowsCrc(prefix, n) == meta.rows_crc) {
          offset += n;
        }
      }
      if (offset > 0) {
        table->DropPendingPrefix(offset);
        GSN_LOG(kInfo, "container")
            << spec.name << ": dropped " << offset
            << " replayed row(s) already flushed to segments";
      }
    }
    Result<std::unique_ptr<storage::PersistenceLog>> log =
        storage::PersistenceLog::Open(path);
    if (!log.ok()) {
      unwind();
      return log.status();
    }
    deployment.log = *std::move(log);
  }

  // Wrappers and stream sources.
  std::vector<std::vector<std::unique_ptr<StreamSource>>> sources(
      spec.input_streams.size());
  for (size_t i = 0; i < spec.input_streams.size(); ++i) {
    for (const vsensor::StreamSourceSpec& source_spec :
         spec.input_streams[i].sources) {
      Result<std::unique_ptr<wrappers::Wrapper>> wrapper =
          MakeWrapperForSource(source_spec, key, &deployment);
      if (!wrapper.ok()) {
        unwind();
        return wrapper.status();
      }
      const uint64_t seed =
          options_.seed * 1000003 +
          (wrapper_seed_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
      auto source = std::make_unique<StreamSource>(
          source_spec, *std::move(wrapper), seed, metrics_, tracer_,
          options_.node_id);
      source->ConfigureAdmission(spec.name,
                                 options_.supervision.queue_capacity,
                                 options_.supervision.shed_policy, metrics_);
      sources[i].push_back(std::move(source));
    }
  }

  const Timestamp now = options_.clock->NowMicros();
  deployment.deployed_at = now;
  if (spec.life_cycle.lifetime_micros > 0) {
    deployment.expires_at = now + spec.life_cycle.lifetime_micros;
  }
  deployment.sensor = std::make_unique<VirtualSensor>(
      std::move(spec), std::move(sources), options_.clock, metrics_, tracer_,
      options_.node_id);

  VirtualSensor* sensor = deployment.sensor.get();
  sensor->AddBatchListener(
      [this](const VirtualSensor& vs, const std::vector<StreamElement>& batch) {
        OnSensorBatch(vs, batch);
      });
  sensor->SetErrorListener(
      [this, key](const VirtualSensor& vs, const std::string& stream_name,
                  const Status& status,
                  const std::vector<StreamElement>& elements) {
        OnSensorError(key, vs, stream_name, status, elements);
      });
  deployment.state_gauge = metrics_->GetGauge(
      "gsn_sensor_state", {{"sensor", sensor->name()}},
      "Supervised sensor state (0 running, 1 restarting, 2 failed)");
  deployment.state_gauge->Set(0);
  deployment.restarts = metrics_->GetCounter(
      "gsn_sensor_restarts_total", {{"sensor", sensor->name()}},
      "Supervised restarts of the virtual sensor");

  const Status started = sensor->Start();
  if (!started.ok()) {
    unwind();
    return started;
  }

  const int system_sources = deployment.system_sources;
  auto published = std::make_shared<Deployment>(std::move(deployment));
  bool inserted = false;
  {
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    inserted = shard.deployments.emplace(key, published).second;
    if (inserted) {
      shard.sensors_gauge->Set(
          static_cast<int64_t>(shard.deployments.size()));
    }
  }
  if (!inserted) {
    // Lost a deploy race for the same name after the early check
    // (CreateTable normally arbitrates, but stay defensive).
    published->sensor->Stop();
    unwind();
    return Status::AlreadyExists("sensor already deployed: " +
                                 published->sensor->name());
  }
  sensors_deployed_->Set(
      total_deployments_.fetch_add(1, std::memory_order_relaxed) + 1);
  if (system_sources > 0) {
    system_sources_total_.fetch_add(system_sources, std::memory_order_relaxed);
    // Prime the cache so the first scrape (one wrapper interval in)
    // never reads an all-zero snapshot.
    RefreshSystemSnapshot();
  }
  // Durable deploy record: a restarted container replays this to bring
  // the sensor back. Suppressed during the recovery replay itself.
  if (manifest_ != nullptr && !recovering_) {
    const Status logged = manifest_->AppendDeploy(key, sensor->spec().ToXml());
    if (!logged.ok()) {
      GSN_LOG(kWarn, "container")
          << options_.node_id << ": manifest deploy record failed: " << logged;
    }
  }
  PublishSensor(sensor->spec());
  // Schedule the publish's retry rounds: a lost broadcast heals long
  // before the next anti-entropy announcement.
  if (options_.network != nullptr) {
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
    PendingPublish pending;
    pending.key = key;
    pending.spec = sensor->spec();
    pending.next_at =
        now + options_.resilience.retry.BackoffForAttempt(1, &resilience_rng_);
    pending_publishes_.push_back(std::move(pending));
  }
  GSN_LOG(kInfo, "container")
      << options_.node_id << ": deployed '" << sensor->name() << "'";
  return sensor;
}

Result<std::unique_ptr<wrappers::Wrapper>> Container::MakeWrapperForSource(
    const vsensor::StreamSourceSpec& source_spec,
    const std::string& deployment_key, Deployment* deployment) {
  // wrapper="local": derive from another virtual sensor on this
  // container (paper §2: "a data stream derived from other virtual
  // sensors"). Predicates address the producer like a directory query,
  // restricted to this node.
  if (StrEqualsIgnoreCase(source_spec.address.wrapper, "local")) {
    std::map<std::string, std::string> query = source_spec.address.predicates;
    query["node"] = options_.node_id;
    const std::vector<DirectoryEntry> matches = directory_.Discover(query);
    if (matches.empty()) {
      return Status::Unavailable(
          "no local virtual sensor matches the address predicates of "
          "source '" +
          source_spec.alias + "' (deploy the producer first)");
    }
    const DirectoryEntry& entry = matches.front();
    auto wrapper = std::make_unique<LocalStreamWrapper>(entry.output_schema,
                                                        entry.sensor_name);
    {
      std::lock_guard<telemetry::TimedMutex> lock(chain_mu_);
      local_wrappers_.emplace(StrToLower(entry.sensor_name), wrapper.get());
    }
    deployment->local_sources.push_back(wrapper.get());
    return std::unique_ptr<wrappers::Wrapper>(std::move(wrapper));
  }

  // wrapper="system": the container itself wrapped as a data source
  // (self-observation — the paper's "anything producing data" applied
  // to the middleware). The provider reads the per-tick snapshot cache
  // under its own small lock, never a shard lock, so a sensor
  // monitoring its own container can never deadlock, and scraping
  // costs the same whether one or fifty sensors watch.
  if (StrEqualsIgnoreCase(source_spec.address.wrapper, "system")) {
    wrappers::WrapperConfig config;
    config.instance_name = source_spec.alias;
    config.params = source_spec.address.predicates;
    config.clock = options_.clock;
    config.seed =
        options_.seed * 7919 +
        (wrapper_seed_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
    ++deployment->system_sources;
    return wrappers::SystemWrapper::Make(config,
                                         [this] { return SystemSnapshotNow(); });
  }

  if (!StrEqualsIgnoreCase(source_spec.address.wrapper, "remote")) {
    wrappers::WrapperConfig config;
    config.instance_name = source_spec.alias;
    config.params = source_spec.address.predicates;
    config.clock = options_.clock;
    config.seed =
        options_.seed * 7919 +
        (wrapper_seed_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
    return registry_.Create(source_spec.address.wrapper, config);
  }

  // wrapper="remote": logical addressing through the directory.
  if (options_.network == nullptr) {
    return Status::InvalidArgument(
        "wrapper=\"remote\" requires the container to be attached to a "
        "network");
  }
  // retry-* predicates configure the subscription's retry policy; they
  // are not part of the producer's identity, so strip them from the
  // discovery query.
  wrappers::WrapperConfig retry_config;
  retry_config.instance_name = source_spec.alias;
  retry_config.params = source_spec.address.predicates;
  GSN_ASSIGN_OR_RETURN(
      network::RetryPolicy retry_policy,
      network::RetryPolicy::FromConfig(retry_config,
                                       options_.resilience.retry));
  std::map<std::string, std::string> query;
  for (const auto& [k, v] : source_spec.address.predicates) {
    if (k.rfind("retry-", 0) != 0) query[k] = v;
  }
  const std::vector<DirectoryEntry> matches = directory_.Discover(query);
  if (matches.empty()) {
    return Status::Unavailable(
        "no published virtual sensor matches the address predicates of "
        "source '" +
        source_spec.alias +
        "' (deploy the producer first, or check the predicates)");
  }
  const Timestamp now = options_.clock->NowMicros();

  std::string subscription_id;
  const DirectoryEntry* entry = &matches.front();
  {
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
    // Prefer a producer whose circuit allows traffic right now; fall
    // back to the first match (subscribe retries take it from there).
    for (const DirectoryEntry& candidate : matches) {
      if (PeerAllowsSendLocked(candidate.node_id, now)) {
        entry = &candidate;
        break;
      }
    }
    subscription_id =
        options_.node_id + "#" + std::to_string(next_subscription_++);
  }
  network::SubscribeRequest request;
  request.subscription_id = subscription_id;
  request.sensor_name = entry->sensor_name;
  request.subscriber_node = options_.node_id;
  GSN_RETURN_IF_ERROR(options_.network->Send(now, options_.node_id,
                                             entry->node_id,
                                             network::kTopicSubscribe,
                                             request.Encode()));

  auto wrapper = std::make_unique<RemoteStreamWrapper>(
      entry->output_schema, entry->node_id, entry->sensor_name);
  {
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
    RemoteSubscription& sub = remote_subs_[subscription_id];
    sub.wrapper = wrapper.get();
    sub.deployment_key = deployment_key;
    sub.peer_node = entry->node_id;
    sub.predicates = std::move(query);
    sub.retry = retry_policy;
    sub.subscribe_attempts = 1;  // the send above
    sub.next_subscribe_at =
        now + sub.retry.BackoffForAttempt(1, &resilience_rng_);
    sub.last_activity = now;
    subs_by_deployment_[deployment_key].push_back(subscription_id);
  }
  return std::unique_ptr<wrappers::Wrapper>(std::move(wrapper));
}

std::vector<std::string> Container::CancelSubscriptionsFor(
    const std::string& key) {
  std::vector<std::string> cancelled;
  std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
  auto it = subs_by_deployment_.find(key);
  if (it != subs_by_deployment_.end()) {
    cancelled = std::move(it->second);
    subs_by_deployment_.erase(it);
    for (const std::string& id : cancelled) remote_subs_.erase(id);
  }
  for (auto pit = pending_publishes_.begin();
       pit != pending_publishes_.end();) {
    pit = pit->key == key ? pending_publishes_.erase(pit) : std::next(pit);
  }
  return cancelled;
}

Status Container::Undeploy(const std::string& sensor_name,
                           const std::string& api_key) {
  GSN_RETURN_IF_ERROR(access_control_.Check(api_key, Permission::kDeploy));
  const std::string key = StrToLower(sensor_name);
  Shard& shard = ShardFor(key);
  std::shared_ptr<Deployment> deployment;
  // Operator/lifetime undeploys are durable; teardown at process
  // exit is not (the whole point of crash recovery).
  const bool record_undeploy = !shutting_down_.load(std::memory_order_acquire);
  {
    std::unique_lock<telemetry::TimedMutex> lock(shard.mu);
    auto it = shard.deployments.find(key);
    if (it == shard.deployments.end()) {
      return Status::NotFound("no such sensor: " + sensor_name);
    }
    deployment = it->second;
    shard.deployments.erase(it);
    shard.sensors_gauge->Set(static_cast<int64_t>(shard.deployments.size()));
    // Busy-flag barrier: a tick worker may still be inside this
    // sensor's pipeline; wait until it clears the flag before stopping
    // and destroying the sensor (the lifetime guarantee the per-sensor
    // pool Shutdown() used to provide).
    shard.idle_cv.wait(lock, [&] { return !deployment->busy; });
  }
  sensors_deployed_->Set(
      total_deployments_.fetch_sub(1, std::memory_order_relaxed) - 1);

  // Detach the chaining edges BEFORE stopping the sensor: after this
  // block no producer fan-out (which runs under chain_mu_) can push
  // into the dying sensor, and its own source wrappers stop receiving.
  {
    std::lock_guard<telemetry::TimedMutex> lock(chain_mu_);
    // This sensor's own local-source wrappers, detached from producers.
    for (auto wit = local_wrappers_.begin(); wit != local_wrappers_.end();) {
      bool mine = false;
      for (LocalStreamWrapper* w : deployment->local_sources) {
        if (wit->second == w) {
          mine = true;
          break;
        }
      }
      wit = mine ? local_wrappers_.erase(wit) : std::next(wit);
    }
    // Consumers chained onto this sensor stop receiving.
    auto range = local_wrappers_.equal_range(key);
    for (auto wit = range.first; wit != range.second;) {
      wit->second->MarkProducerGone();
      wit = local_wrappers_.erase(wit);
    }
  }

  // Federation bookkeeping: our subscriptions on remote producers are
  // cancelled (failover can no longer touch their wrappers), remote
  // consumers of this sensor dropped, pending publish rounds purged.
  const std::vector<std::string> cancelled = CancelSubscriptionsFor(key);
  {
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
    for (auto it = subscribers_.begin(); it != subscribers_.end();) {
      if (StrEqualsIgnoreCase(it->second.sensor_name, sensor_name)) {
        it = subscribers_.erase(it);
      } else {
        ++it;
      }
    }
  }

  if (deployment->system_sources > 0) {
    system_sources_total_.fetch_sub(deployment->system_sources,
                                    std::memory_order_relaxed);
  }
  deployment->sensor->Stop();

  // Cancel our subscriptions on remote producers.
  if (options_.network != nullptr) {
    for (const std::string& id : cancelled) {
      network::UnsubscribeRequest cancel;
      cancel.subscription_id = id;
      // Peer node id is encoded in the wrapper; broadcast is simpler
      // and idempotent for unknown ids.
      (void)options_.network->Broadcast(options_.clock->NowMicros(),
                                        options_.node_id,
                                        network::kTopicUnsubscribe,
                                        cancel.Encode());
    }
  }

  RetractSensor(deployment->sensor->name());
  GSN_RETURN_IF_ERROR(tables_.DropTable(sensor_name));
  // Operator undeploys retire the sensor's cold history with it;
  // process-exit teardown keeps the segments (they come back with the
  // sensor on restart), mirroring the manifest rule below.
  if (segments_ != nullptr && !recovering_ && record_undeploy) {
    const Status dropped = segments_->DropTable(key);
    if (!dropped.ok()) {
      GSN_LOG(kWarn, "container")
          << options_.node_id << ": segment drop for '" << sensor_name
          << "' failed: " << dropped;
    }
  }
  // Retire the sensor's metric series; its handles die with `deployment`.
  metrics_->RemoveWithLabel("sensor", deployment->sensor->name());
  if (manifest_ != nullptr && !recovering_ && record_undeploy) {
    const Status logged = manifest_->AppendUndeploy(key);
    if (!logged.ok()) {
      GSN_LOG(kWarn, "container")
          << options_.node_id << ": manifest undeploy record failed: "
          << logged;
    }
  }
  GSN_LOG(kInfo, "container")
      << options_.node_id << ": undeployed '" << sensor_name << "'";
  return Status::OK();
}

int Container::ShardIndexFor(const std::string& key) const {
  // FNV-1a over the (already lowercased) sensor key; stable across
  // runs so recovery with the same shard count lands sensors on the
  // same shard (and with a different count, simply elsewhere — no
  // state outlives the process that cares which shard a sensor used).
  uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<int>(h % static_cast<uint64_t>(shards_.size()));
}

Container::Shard& Container::ShardFor(const std::string& key) const {
  return *shards_[ShardIndexFor(key)];
}

std::vector<std::string> Container::ListSensors() const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    for (const auto& [key, deployment] : shard->deployments) {
      out.push_back(deployment->sensor->name());
    }
  }
  return out;
}

VirtualSensor* Container::FindSensor(const std::string& sensor_name) const {
  const std::string key = StrToLower(sensor_name);
  Shard& shard = ShardFor(key);
  std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
  auto it = shard.deployments.find(key);
  return it == shard.deployments.end() ? nullptr : it->second->sensor.get();
}

// ---------------------------------------------------------------- Runtime

namespace {
/// Anti-entropy period for directory gossip.
constexpr Timestamp kAnnounceInterval = 5 * kMicrosPerSecond;
}  // namespace

Result<int> Container::Tick() {
  telemetry::Span tick_span(tracer_, "tick", TraceContext(),
                            tick_micros_.get());
  const Timestamp now = options_.clock->NowMicros();
  uptime_gauge_->Set(
      (telemetry::SteadyClock::Instance()->NowMicros() - started_steady_micros_) /
      kMicrosPerSecond);

  {
    telemetry::Span phase(tracer_, "tick.resilience", TraceContext(),
                          tick_phase_resilience_.get());
    // Periodic directory re-announcement: lost publish messages heal.
    bool announce = false;
    {
      std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
      if (options_.network != nullptr &&
          now - last_announce_ >= kAnnounceInterval) {
        last_announce_ = now;
        announce = true;
      }
    }
    if (announce) AnnounceAll();

    // Federation resilience round: heartbeats, circuit breakers,
    // subscribe/NACK/publish retries, tips, failover.
    if (options_.network != nullptr) RunResilience(now);
  }

  // Drain the shards: inline when single-sharded, otherwise one task
  // per shard on the tick worker pool. Concurrent Tick() drivers
  // (gsnd's RealtimePump plus an HTTP/management drain) are safe
  // without a global tick mutex: per-sensor exclusivity comes from the
  // busy flag, so a sensor another round is still draining is simply
  // skipped by this one.
  telemetry::Span dispatch_phase(tracer_, "tick.dispatch", TraceContext(),
                                 tick_phase_dispatch_.get());
  int produced = 0;
  if (tick_pool_ == nullptr || shards_.size() == 1) {
    for (auto& shard : shards_) produced += TickShard(*shard, now);
  } else {
    std::mutex done_mu;
    std::condition_variable done_cv;
    size_t pending = shards_.size();
    std::atomic<int> total{0};
    // A local latch, not tick_pool_->Wait(): Wait() would also block
    // on shard tasks submitted by a concurrent Tick driver.
    auto finish_one = [&] {
      std::lock_guard<std::mutex> lock(done_mu);
      if (--pending == 0) done_cv.notify_all();
    };
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      const bool submitted = tick_pool_->Submit([&, s] {
        total.fetch_add(TickShard(*s, now), std::memory_order_relaxed);
        finish_one();
      });
      if (!submitted) {
        // Pool already shut down (drain at exit): run inline.
        total.fetch_add(TickShard(*s, now), std::memory_order_relaxed);
        finish_one();
      }
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return pending == 0; });
    produced = total.load(std::memory_order_relaxed);
  }
  dispatch_phase.Finish();

  // Periodic checkpoint: bound the manifest and every WAL (and with
  // them, the next recovery) to the live state. try_lock keeps the
  // trigger single-flight across concurrent Tick drivers; the WAL
  // swaps inside Checkpoint() are serialized against pipeline appends
  // by each shard's lock.
  if (manifest_ != nullptr && options_.supervision.checkpoint_interval > 0) {
    std::unique_lock<std::mutex> cp_lock(checkpoint_mu_, std::try_to_lock);
    if (cp_lock.owns_lock() &&
        now - last_checkpoint_ >= options_.supervision.checkpoint_interval) {
      telemetry::Span phase(tracer_, "tick.checkpoint", TraceContext(),
                            tick_phase_checkpoint_.get());
      last_checkpoint_ = now;
      const Status s = Checkpoint();
      if (!s.ok()) {
        GSN_LOG(kWarn, "container")
            << options_.node_id << ": checkpoint failed: " << s;
      }
    }
  }

  // Refresh the cache system wrappers scrape (no-op while none are
  // deployed). Last, so monitors read this tick's state next poll.
  RefreshSystemSnapshot();
  return produced;
}

int Container::TickShard(Shard& shard, Timestamp now) {
  struct Job {
    std::shared_ptr<Deployment> deployment;
    /// True while the supervisor has the sensor paused for restart
    /// backoff: its sources pump (queues fill, shed policies engage)
    /// but no pipeline runs.
    bool paused = false;
  };
  std::vector<Job> jobs;
  std::vector<std::string> expired;
  {
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    jobs.reserve(shard.deployments.size());
    for (auto& [key, deployment] : shard.deployments) {
      if (deployment->expires_at > 0 && now >= deployment->expires_at) {
        expired.push_back(deployment->sensor->name());
        continue;
      }
      if (deployment->state == SensorState::kFailed) continue;
      bool paused = false;
      if (deployment->state == SensorState::kRestarting) {
        if (now >= deployment->resume_at) {
          deployment->state = SensorState::kRunning;
          deployment->state_gauge->Set(0);
          GSN_LOG(kInfo, "container")
              << options_.node_id << ": restarted '"
              << deployment->sensor->name() << "' (attempt "
              << deployment->restart_attempts << ")";
        } else {
          paused = true;
        }
      }
      // Per-sensor tick exclusivity: a concurrent Tick driver that is
      // still draining this sensor owns it until the busy flag clears.
      if (deployment->busy) continue;
      deployment->busy = true;
      jobs.push_back({deployment, paused});
    }
  }

  // Lifetime bounds (paper §3): expired sensors release their
  // resources. Expired deployments were never marked busy, so the
  // Undeploy barrier below cannot wait on this worker.
  for (const std::string& name : expired) {
    GSN_LOG(kInfo, "container") << name << ": lifetime expired, undeploying";
    const Status s = Undeploy(name);
    if (!s.ok()) {
      GSN_LOG(kWarn, "container") << "lifetime undeploy failed: " << s;
    }
  }

  // Drain outside the shard lock: deploy/undeploy/status on this shard
  // block only for the map scans, never for pipeline work. A failing
  // sensor is handed to the supervisor instead of failing the round —
  // one bad sensor must never stall its neighbors.
  int produced = 0;
  std::vector<std::pair<std::string, Status>> failures;
  for (const Job& job : jobs) {
    if (job.paused) {
      const Status pumped = job.deployment->sensor->PumpSources(now);
      if (!pumped.ok()) {
        GSN_LOG(kWarn, "container")
            << job.deployment->key << ": pump while paused failed: " << pumped;
      }
      continue;
    }
    Result<int> n = job.deployment->sensor->Tick(now);
    if (n.ok()) {
      produced += *n;
    } else {
      failures.emplace_back(job.deployment->key, n.status());
    }
  }

  {
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    for (const Job& job : jobs) {
      job.deployment->busy = false;
      if (job.paused) continue;
      // A sensor that keeps completing ticks after a restart earns its
      // retry budget back: max_attempts caps consecutive failures, not
      // lifetime totals — otherwise a few transient errors spread over
      // weeks would permanently FAIL the sensor (and pin readiness at
      // 503).
      if (options_.supervision.healthy_ticks_to_reset <= 0) continue;
      bool failed_this_tick = false;
      for (const auto& [key, status] : failures) {
        if (key == job.deployment->key) {
          failed_this_tick = true;
          break;
        }
      }
      if (failed_this_tick) continue;
      Deployment& deployment = *job.deployment;
      if (deployment.state != SensorState::kRunning ||
          deployment.restart_attempts == 0) {
        continue;
      }
      if (++deployment.healthy_ticks >=
          options_.supervision.healthy_ticks_to_reset) {
        GSN_LOG(kInfo, "container")
            << options_.node_id << ": '" << deployment.sensor->name()
            << "' healthy for " << deployment.healthy_ticks
            << " tick(s); restart budget restored";
        deployment.restart_attempts = 0;
        deployment.healthy_ticks = 0;
      }
    }
    shard.ticks_total->Increment(static_cast<int64_t>(jobs.size()));
    shard.lock_wait_gauge->Set(
        static_cast<int64_t>(shard.mu.wait_micros_total()));
  }
  // Wake Undeploy barriers waiting for a busy flag we just cleared.
  shard.idle_cv.notify_all();

  for (const auto& [key, status] : failures) {
    HandleSensorFailure(key, status, now);
  }
  return produced;
}

void Container::HandleSensorFailure(const std::string& key,
                                    const Status& status, Timestamp now) {
  Shard& shard = ShardFor(key);
  std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
  auto it = shard.deployments.find(key);
  if (it == shard.deployments.end()) return;
  Deployment& deployment = *it->second;
  if (deployment.state == SensorState::kFailed) return;
  ++deployment.restart_attempts;
  deployment.healthy_ticks = 0;
  deployment.restarts->Increment();
  if (options_.supervision.retry.Exhausted(deployment.restart_attempts)) {
    deployment.state = SensorState::kFailed;
    deployment.state_gauge->Set(2);
    GSN_LOG(kError, "container")
        << options_.node_id << ": '" << deployment.sensor->name()
        << "' FAILED after " << deployment.restart_attempts
        << " restart(s); last error: " << status;
    return;
  }
  deployment.state = SensorState::kRestarting;
  deployment.state_gauge->Set(1);
  deployment.resume_at =
      now + options_.supervision.retry.BackoffForAttempt(
                deployment.restart_attempts, &shard.rng);
  GSN_LOG(kWarn, "container")
      << options_.node_id << ": '" << deployment.sensor->name()
      << "' paused for restart " << deployment.restart_attempts << " ("
      << status << ")";
}

void Container::OnSensorError(const std::string& key,
                              const VirtualSensor& sensor,
                              const std::string& stream_name,
                              const Status& status,
                              const std::vector<StreamElement>& elements) {
  // Dead-letter the trigger: the elements the pipeline choked on are
  // the suspects. The requeue target is the stream's first source (a
  // StreamElement does not record which source admitted it).
  std::string source_alias;
  for (const vsensor::InputStreamSpec& stream : sensor.spec().input_streams) {
    if (StrEqualsIgnoreCase(stream.name, stream_name) &&
        !stream.sources.empty()) {
      source_alias = stream.sources.front().alias;
      break;
    }
  }
  const Timestamp now = options_.clock->NowMicros();
  for (const StreamElement& element : elements) {
    quarantine_->Add(sensor.name(), stream_name, source_alias,
                     status.message(), now, element);
  }
  HandleSensorFailure(key, status, now);
}

Status Container::RequeueQuarantined(uint64_t id) {
  GSN_ASSIGN_OR_RETURN(QuarantineStore::Entry entry, quarantine_->Take(id));
  // Lookup AND Inject under the sensor's shard lock: a concurrent
  // Undeploy (descriptor watcher, another HTTP request) erases the
  // deployment under the same lock, so the sensor cannot be destroyed
  // between the find and the injection. Inject only takes the source's
  // own lock — a leaf, no ordering hazard against the shard lock.
  bool injected = false;
  {
    const std::string key = StrToLower(entry.sensor);
    Shard& shard = ShardFor(key);
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    auto it = shard.deployments.find(key);
    StreamSource* source =
        it == shard.deployments.end()
            ? nullptr
            : it->second->sensor->FindSource(entry.stream, entry.source_alias);
    if (source != nullptr) {
      source->Inject(entry.element);
      injected = true;
    }
  }
  if (!injected) {
    // Put it back rather than silently dropping a tuple the operator
    // asked to keep.
    quarantine_->Add(entry.sensor, entry.stream, entry.source_alias,
                     entry.error, entry.quarantined_at, entry.element);
    return Status::NotFound("quarantined tuple " + std::to_string(id) +
                            " has no live source '" + entry.stream + "/" +
                            entry.source_alias + "' on sensor '" +
                            entry.sensor + "'");
  }
  GSN_LOG(kInfo, "container")
      << options_.node_id << ": requeued quarantined tuple "
      << std::to_string(id) << " into " << entry.sensor << "/" << entry.stream;
  return Status::OK();
}

Status Container::Checkpoint() {
  Status first_error = Status::OK();
  std::vector<std::pair<std::string, std::string>> live;
  // One shard at a time: pipelines on the other shards keep appending
  // while this shard's WALs rewrite. Never two shard locks at once.
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    for (auto& [key, deployment_ptr] : shard.deployments) {
      Deployment& deployment = *deployment_ptr;
      live.emplace_back(key, deployment.sensor->spec().ToXml());
      if (deployment.log == nullptr) continue;
      // Tiered history: rows the retention window evicted since the
      // last checkpoint move into an immutable columnar segment BEFORE
      // the WAL rewrite drops them from the log. Durability order is
      // segment fsync -> catalog journal fsync -> WAL rewrite, so a
      // crash at any point leaves every row in at least one tier (the
      // deploy-time seam dedup handles "in both"). If the flush fails
      // the rows go back to pending and the rewrite is skipped — the
      // uncompacted WAL remains their durable home.
      if (segments_ != nullptr && deployment.table->history_capture_enabled()) {
        Relation::RowList evicted = deployment.table->TakeEvicted();
        if (!evicted.empty()) {
          Result<storage::columnar::SegmentMeta> flushed = segments_->Flush(
              key, deployment.table->row_schema(), evicted);
          if (!flushed.ok()) {
            deployment.table->RestoreEvicted(std::move(evicted));
            if (first_error.ok()) first_error = flushed.status();
            GSN_LOG(kWarn, "container")
                << options_.node_id << ": '" << deployment.sensor->name()
                << "' segment flush failed: " << flushed.status();
            continue;
          }
        }
      }
      // Rewrite the WAL to exactly the rows still inside the table's
      // retention window: recovery replays O(window), not O(history).
      // Pipeline appends (OnSensorBatch) also run under this shard's
      // lock, so nobody can write through the old handle mid-rewrite;
      // destroying it first honors Rewrite's contract (a surviving
      // handle's buffered writes would land on the renamed-over inode
      // and be lost).
      const std::string path = deployment.log->path();
      deployment.log.reset();
      Result<std::unique_ptr<storage::PersistenceLog>> rewritten =
          storage::PersistenceLog::Rewrite(path,
                                           deployment.table->SnapshotElements());
      if (!rewritten.ok()) {
        if (first_error.ok()) first_error = rewritten.status();
        // Compaction failed, but persistence must go on: reopen the
        // uncompacted log for appending.
        Result<std::unique_ptr<storage::PersistenceLog>> reopened =
            storage::PersistenceLog::Open(path);
        if (reopened.ok()) {
          deployment.log = *std::move(reopened);
        } else {
          GSN_LOG(kError, "container")
              << options_.node_id << ": '" << deployment.sensor->name()
              << "' WAL lost after failed checkpoint: " << reopened.status();
        }
        continue;
      }
      deployment.log = *std::move(rewritten);
    }
  }
  if (manifest_ != nullptr) {
    const Status compacted = manifest_->Compact(live);
    if (!compacted.ok() && first_error.ok()) first_error = compacted;
  }
  return first_error;
}

Status Container::Shutdown() {
  // 1. Stop admitting new wrapper load (the queues keep their backlog).
  if (draining_.exchange(true, std::memory_order_acq_rel)) {
    return Status::OK();
  }
  for (auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    for (auto& [key, deployment] : shard->deployments) {
      deployment->sensor->SetAdmitting(false);
    }
  }
  GSN_LOG(kInfo, "container") << options_.node_id << ": draining";

  // 2. Flush what the admission queues already hold through the
  // pipelines. Bounded rounds: a wedged sensor must not hang shutdown.
  for (int round = 0; round < 16; ++round) {
    Result<int> n = Tick();
    if (!n.ok()) break;
    size_t depth = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
      for (const auto& [key, deployment] : shard->deployments) {
        depth += deployment->sensor->QueueDepth();
      }
    }
    if (*n == 0 && depth == 0) break;
  }

  // 3. Make everything durable: final checkpoint, then fsync.
  Status first_error = Checkpoint();
  for (auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    for (auto& [key, deployment] : shard->deployments) {
      if (deployment->log == nullptr) continue;
      const Status synced = deployment->log->Sync();
      if (!synced.ok() && first_error.ok()) first_error = synced;
    }
  }
  // 4. The destructor's undeploys are process exit, not intent.
  shutting_down_.store(true, std::memory_order_release);
  if (manifest_ != nullptr) {
    const Status synced = manifest_->Sync();
    if (!synced.ok() && first_error.ok()) first_error = synced;
  }
  GSN_LOG(kInfo, "container") << options_.node_id << ": drain complete";
  return first_error;
}

bool Container::draining() const {
  return draining_.load(std::memory_order_acquire);
}

Container::Health Container::GetHealth() const {
  Health health;
  if (draining()) {
    health.ready = false;
    health.reasons.push_back("draining");
  }
  for (const auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    for (const auto& [key, deployment] : shard->deployments) {
      const std::string& name = deployment->sensor->name();
      if (deployment->state == SensorState::kFailed) {
        health.ready = false;
        health.reasons.push_back("sensor '" + name + "' failed");
      } else if (deployment->state == SensorState::kRestarting) {
        health.ready = false;
        health.reasons.push_back("sensor '" + name + "' restarting");
      }
      if (deployment->sensor->AnyQueueFull()) {
        health.ready = false;
        health.reasons.push_back("admission queue of '" + name +
                                 "' at capacity");
      }
    }
  }
  return health;
}

// ------------------------------------------------------- Self-observation

wrappers::SystemSnapshot Container::ComputeSystemSnapshot() const {
  wrappers::SystemSnapshot snap;
  // One shard at a time, federation state separately — never more than
  // one of these locks held at once.
  for (const auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    snap.sensors += static_cast<int64_t>(shard->deployments.size());
    for (const auto& [key, deployment] : shard->deployments) {
      switch (deployment->state) {
        case SensorState::kRunning:
          ++snap.running;
          break;
        case SensorState::kRestarting:
          ++snap.restarting;
          break;
        case SensorState::kFailed:
          ++snap.failed;
          break;
      }
      snap.queue_depth +=
          static_cast<int64_t>(deployment->sensor->QueueDepth());
    }
  }
  {
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
    const Timestamp now = options_.clock->NowMicros();
    for (const auto& [sub_id, subscriber] : subscribers_) {
      snap.replay_bytes += static_cast<int64_t>(subscriber.replay.bytes());
    }
    snap.peers = static_cast<int64_t>(peers_.size());
    for (const auto& [peer_id, peer] : peers_) {
      if (peer.breaker.StateAt(now) == network::CircuitBreaker::State::kOpen) {
        ++snap.open_circuits;
      }
    }
  }
  // Everything below reads components with their own synchronization:
  // holding a shard lock across them would only widen it.
  snap.quarantined = static_cast<int64_t>(quarantine_->size());
  if (segments_ != nullptr) {
    snap.segments = static_cast<int64_t>(segments_->segment_count());
    snap.segment_bytes = static_cast<int64_t>(segments_->total_bytes());
  }
  snap.shed_total = metrics_->SumCounters("gsn_admission_shed_total");
  snap.tuples_total = metrics_->SumCounters("gsn_sensor_tuples_total");
  snap.errors_total = metrics_->SumCounters("gsn_sensor_errors_total");
  snap.metric_series = static_cast<int64_t>(metrics_->NumSeries());
  const telemetry::Histogram::Snapshot ticks = tick_micros_->TakeSnapshot();
  if (ticks.count > 0) {
    snap.tick_mean_ms = ticks.Mean() / 1000.0;
    snap.tick_p95_ms = static_cast<double>(ticks.Quantile(0.95)) / 1000.0;
  }
  if (ticks.sum > 0) {
    snap.lock_wait_share =
        static_cast<double>(
            metrics_->SumHistograms("gsn_lock_wait_micros").sum) /
        static_cast<double>(ticks.sum);
  }
  const telemetry::Histogram::Snapshot queue_wait =
      metrics_->SumHistograms("gsn_queue_wait_micros");
  if (queue_wait.count > 0) {
    snap.queue_wait_p95_ms =
        static_cast<double>(queue_wait.Quantile(0.95)) / 1000.0;
  }
  const telemetry::ProcessStats proc = telemetry::ReadProcessStats();
  snap.rss_bytes = proc.rss_bytes;
  snap.cpu_seconds = proc.cpu_seconds;
  snap.uptime_seconds =
      (telemetry::SteadyClock::Instance()->NowMicros() -
       started_steady_micros_) /
      kMicrosPerSecond;
  return snap;
}

void Container::RefreshSystemSnapshot() {
  // Gate: without a deployed wrapper="system" source nobody reads the
  // cache, so self-scraping must cost nothing (fig3's overhead budget).
  if (system_sources_total_.load(std::memory_order_relaxed) == 0) return;
  wrappers::SystemSnapshot snap = ComputeSystemSnapshot();
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  system_snapshot_ = std::move(snap);
}

wrappers::SystemSnapshot Container::SystemSnapshotNow() const {
  // Cache read only — a system wrapper polled from inside a tick
  // worker (which transiently holds its shard's lock) must never need
  // a shard lock itself.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return system_snapshot_;
}

Container::ContainerStatus Container::GetStatus() const {
  ContainerStatus status;
  status.node_id = options_.node_id;
  status.version = telemetry::BuildVersion();
  status.compiler = telemetry::BuildCompiler();
  status.draining = draining();
  status.health = GetHealth();
  status.totals = ComputeSystemSnapshot();
  for (const std::string& name : ListSensors()) {
    Result<SensorStatus> sensor = GetSensorStatus(name);
    if (sensor.ok()) status.sensors.push_back(*std::move(sensor));
  }
  status.peers = PeerStatuses();
  const auto lock_stats = [](const telemetry::TimedMutex& mu) {
    LockStats stats;
    stats.name = mu.label();
    stats.acquisitions = mu.acquisitions();
    stats.contended = mu.contended();
    stats.wait_micros = mu.wait_micros_total();
    return stats;
  };
  // Per-shard rows: contention is attributable to the shard that pays
  // it. The TimedMutex accessors are lock-free reads.
  for (const auto& shard : shards_) {
    ShardStatus row;
    row.index = shard->index;
    row.sensors = static_cast<size_t>(shard->sensors_gauge->Value());
    row.ticks_total = shard->ticks_total->Value();
    row.lock_acquisitions = shard->mu.acquisitions();
    row.lock_contended = shard->mu.contended();
    row.lock_wait_micros = shard->mu.wait_micros_total();
    status.shards.push_back(row);
    status.locks.push_back(lock_stats(shard->mu));
  }
  status.locks.push_back(lock_stats(fed_mu_));
  status.locks.push_back(lock_stats(chain_mu_));
  status.locks.push_back(lock_stats(query_manager_.cache_lock()));
  // Hot spans are read off the tick/batch histograms the spans above
  // observe into: one measurement, two views.
  const std::pair<const char*, const telemetry::Histogram*> hot[] = {
      {"tick", tick_micros_.get()},
      {"tick.resilience", tick_phase_resilience_.get()},
      {"tick.dispatch", tick_phase_dispatch_.get()},
      {"tick.checkpoint", tick_phase_checkpoint_.get()},
      {"batch.storage", batch_storage_micros_.get()},
      {"batch.fanout", batch_fanout_micros_.get()}};
  for (const auto& [span_name, histogram] : hot) {
    const telemetry::Histogram::Snapshot snapshot = histogram->TakeSnapshot();
    if (snapshot.count == 0) continue;
    status.hot_spans.push_back(
        {span_name, snapshot.count, snapshot.sum, snapshot.max});
  }
  std::stable_sort(status.hot_spans.begin(), status.hot_spans.end(),
                   [](const HotSpan& a, const HotSpan& b) {
                     return a.total_micros > b.total_micros;
                   });
  status.recovered_records = recovered_records_;
  status.recovery_failures = recovery_failures_;
  return status;
}

void Container::OnSensorBatch(const VirtualSensor& sensor,
                              const std::vector<StreamElement>& batch) {
  if (batch.empty()) return;
  const std::string& name = sensor.name();

  // Storage layer: the whole batch lands under the sensor's shard lock.
  // The WAL append stays inside the same critical section: Checkpoint()
  // destroys and replaces the log handle under the shard lock, so an
  // append racing a swap would write through a dead handle or onto the
  // compacted-over inode (and be lost to every future recovery).
  // Keeping insert + append atomic also means a checkpoint snapshot
  // always covers exactly the batches appended before it.
  std::vector<Outbound> remote_sends;
  telemetry::Span storage_span(tracer_, "batch.storage", TraceContext(),
                               batch_storage_micros_.get());
  {
    const std::string key = StrToLower(name);
    Shard& shard = ShardFor(key);
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    auto it = shard.deployments.find(key);
    if (it != shard.deployments.end()) {
      if (it->second->table != nullptr) {
        const Status s = it->second->table->InsertBatch(batch);
        if (!s.ok()) {
          GSN_LOG(kWarn, "container") << name << ": table insert failed: " << s;
        }
      }
      if (it->second->log != nullptr) {
        for (const StreamElement& element : batch) {
          const Status s = it->second->log->Append(element);
          if (!s.ok()) {
            GSN_LOG(kWarn, "container")
                << name << ": persistence failed: " << s;
            break;
          }
        }
      }
    }
  }
  // Remote deliveries are sequenced and buffered for replay under
  // fed_mu_ — sequence assignment must be atomic with the
  // replay-buffer write, and per-subscription monotonicity holds
  // because one sensor's batches are serialized by its busy flag —
  // then sent after release.
  {
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
    const Timestamp send_now = options_.clock->NowMicros();
    if (options_.network != nullptr) {
      for (auto& [sub_id, subscriber] : subscribers_) {
        if (!StrEqualsIgnoreCase(subscriber.sensor_name, name)) continue;
        // An open circuit pauses the sends but not the sequencing: the
        // deliveries stay in the replay buffer, and the subscriber
        // NACKs the gap once the peer heals.
        const bool allowed =
            PeerAllowsSendLocked(subscriber.subscriber_node, send_now);
        for (const StreamElement& element : batch) {
          network::StreamDelivery delivery;
          delivery.subscription_id = sub_id;
          delivery.sensor_name = name;
          delivery.element = element;
          delivery.signature = integrity_.Sign(name, element);
          delivery.sequence = subscriber.next_seq++;
          // One "remote.send" span per target; its context rides in
          // the delivery (outside the signed payload) so the receiving
          // node continues the same trace.
          telemetry::Span send(tracer_, "remote.send", element.trace);
          send.set_sensor(name);
          send.set_node(options_.node_id);
          delivery.trace = send.context();
          std::string payload = delivery.Encode();
          subscriber.replay.Put(delivery.sequence, payload);
          if (allowed) {
            remote_sends.push_back({subscriber.subscriber_node,
                                    network::kTopicStream,
                                    std::move(payload)});
          }
        }
      }
    }
  }
  storage_span.Finish();

  // Local chaining: feed consumers deployed on this container.
  // chain_mu_ is held ACROSS PushBatch — Undeploy detaches a dying
  // consumer's wrappers under the same lock, so fan-out can never push
  // into a wrapper whose sensor is being destroyed. PushBatch only
  // takes the wrapper's own queue lock (a leaf), so this cannot
  // deadlock, and producers on other shards fan out concurrently only
  // contending here.
  telemetry::Span fanout_span(tracer_, "batch.fanout", TraceContext(),
                              batch_fanout_micros_.get());
  {
    std::lock_guard<telemetry::TimedMutex> lock(chain_mu_);
    auto range = local_wrappers_.equal_range(StrToLower(name));
    for (auto it = range.first; it != range.second; ++it) {
      it->second->PushBatch(batch);
    }
  }

  // Notification manager (per-element conditions, one subscription
  // snapshot) + query repository (one evaluation pass per batch: the
  // continuous queries read the table state just inserted above).
  notifications_.OnBatch(name, sensor.output_schema(), batch);
  query_manager_.OnNewElementBatch(name, batch);

  // Remote consumers (each element signed by the integrity layer,
  // sequenced and buffered above).
  if (options_.network != nullptr) {
    const Timestamp send_now = options_.clock->NowMicros();
    for (Outbound& send : remote_sends) {
      const Status s =
          options_.network->Send(send_now, options_.node_id, send.to,
                                 send.topic, std::move(send.payload));
      if (!s.ok()) {
        GSN_LOG(kWarn, "container")
            << name << ": stream delivery to " << send.to << " failed: " << s;
      }
    }
  }
}

// ---------------------------------------------------------------- Queries

Result<Relation> Container::Query(const std::string& sql_text,
                                  const std::string& api_key) {
  if (access_control_.enabled()) {
    GSN_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                         sql::ParseSelect(sql_text));
    std::set<std::string> tables;
    QueryManager::CollectTables(*stmt, &tables);
    for (const std::string& table : tables) {
      GSN_RETURN_IF_ERROR(
          access_control_.Check(api_key, Permission::kRead, table));
    }
  }
  return query_manager_.Execute(sql_text);
}

// -------------------------------------------------------------- Directory

std::vector<DirectoryEntry> Container::Discover(
    const std::map<std::string, std::string>& query) const {
  return directory_.Discover(query);
}

void Container::PublishSensor(const VirtualSensorSpec& spec) {
  DirectoryEntry entry;
  entry.sensor_name = spec.name;
  entry.node_id = options_.node_id;
  entry.predicates = spec.metadata;
  entry.output_schema = spec.output_structure;
  directory_.Upsert(entry);
  if (options_.network != nullptr) {
    (void)options_.network->Broadcast(options_.clock->NowMicros(),
                                      options_.node_id,
                                      network::kTopicDirPublish,
                                      entry.Encode());
  }
}

void Container::RetractSensor(const std::string& sensor_name) {
  directory_.Remove(options_.node_id, sensor_name);
  if (options_.network != nullptr) {
    network::DirRemove remove;
    remove.node_id = options_.node_id;
    remove.sensor_name = sensor_name;
    (void)options_.network->Broadcast(options_.clock->NowMicros(),
                                      options_.node_id,
                                      network::kTopicDirRemove,
                                      remove.Encode());
  }
}

void Container::AnnounceAll() {
  // shared_ptr copies pin the deployments (and with them the specs)
  // against a concurrent Undeploy while we publish outside the locks.
  std::vector<std::shared_ptr<Deployment>> live;
  for (const auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    for (const auto& [key, deployment] : shard->deployments) {
      live.push_back(deployment);
    }
  }
  for (const auto& deployment : live) PublishSensor(deployment->sensor->spec());
}

// ---------------------------------------------------------------- Network

void Container::OnMessage(const Message& message) {
  // Any received message is liveness evidence for its sender: refresh
  // the peer's heartbeat clock and feed its circuit breaker a success.
  if (!message.from.empty() && message.from != options_.node_id) {
    const bool new_peer =
        NotePeerAlive(message.from, options_.clock->NowMicros());
    // First contact on a real transport: the peer cannot have seen our
    // deploy-time directory broadcasts (it started later, or sits
    // behind a forwarder and only now learned our address), so
    // re-announce. The simulator keeps its deterministic message
    // schedule: every node is registered before traffic starts there.
    if (new_peer && options_.network != nullptr &&
        options_.network->AsSimulator() == nullptr) {
      AnnounceAll();
    }
  }
  if (message.topic == network::kTopicHeartbeat) {
    return;  // nothing beyond the liveness note above
  }
  if (message.topic == network::kTopicDirPublish) {
    Result<DirectoryEntry> entry = DirectoryEntry::Decode(message.payload);
    if (entry.ok()) {
      directory_.Upsert(*std::move(entry));
    }
    return;
  }
  if (message.topic == network::kTopicDirRemove) {
    Result<network::DirRemove> remove =
        network::DirRemove::Decode(message.payload);
    if (remove.ok()) directory_.Remove(remove->node_id, remove->sensor_name);
    return;
  }
  if (message.topic == network::kTopicSubscribe) {
    Result<network::SubscribeRequest> request =
        network::SubscribeRequest::Decode(message.payload);
    if (!request.ok()) return;
    {
      std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
      // Idempotent: a re-sent request (lost ack) must not reset the
      // sequence counter or drop the replay buffer.
      auto [it, inserted] =
          subscribers_.try_emplace(request->subscription_id);
      if (inserted) {
        it->second.sensor_name = request->sensor_name;
        it->second.subscriber_node = request->subscriber_node;
        it->second.replay =
            network::ReplayBuffer(options_.resilience.replay_buffer_bytes);
      }
    }
    network::SubscribeAck ack;
    ack.subscription_id = request->subscription_id;
    (void)options_.network->Send(options_.clock->NowMicros(),
                                 options_.node_id, request->subscriber_node,
                                 network::kTopicSubAck, ack.Encode());
    return;
  }
  if (message.topic == network::kTopicSubAck) {
    Result<network::SubscribeAck> ack =
        network::SubscribeAck::Decode(message.payload);
    if (!ack.ok()) return;
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
    auto it = remote_subs_.find(ack->subscription_id);
    if (it != remote_subs_.end()) {
      it->second.acked = true;
      it->second.last_activity = options_.clock->NowMicros();
    }
    return;
  }
  if (message.topic == network::kTopicStreamTip) {
    Result<network::StreamTip> tip =
        network::StreamTip::Decode(message.payload);
    if (!tip.ok()) return;
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
    auto it = remote_subs_.find(tip->subscription_id);
    if (it != remote_subs_.end()) {
      it->second.acked = true;  // a tip implies the producer knows us
      // A tip only proves the subscription is alive when it reaches
      // our cursor: a restarted producer tips its fresh (low) sequence
      // space, and counting that as activity would mask the restart.
      if (tip->last_sequence + 1 >= it->second.wrapper->expected_sequence()) {
        it->second.last_activity = options_.clock->NowMicros();
      }
      it->second.wrapper->ObserveTip(tip->last_sequence);
    }
    return;
  }
  if (message.topic == network::kTopicStreamNack) {
    Result<network::NackRequest> nack =
        network::NackRequest::Decode(message.payload);
    if (!nack.ok()) return;
    // Serve the replay out of the subscriber's buffer; sequences
    // already evicted stay missing (the subscriber abandons them).
    std::vector<std::string> payloads;
    std::string target;
    {
      std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
      auto it = subscribers_.find(nack->subscription_id);
      if (it == subscribers_.end()) return;
      target = it->second.subscriber_node;
      constexpr size_t kMaxReplaysPerNack = 1024;
      for (const network::SeqRange& range : nack->ranges) {
        for (uint64_t seq = range.from;
             seq <= range.to && payloads.size() < kMaxReplaysPerNack; ++seq) {
          const std::string* payload = it->second.replay.Get(seq);
          if (payload != nullptr) payloads.push_back(*payload);
        }
      }
    }
    if (!payloads.empty()) {
      fed_replays_->Increment(static_cast<int64_t>(payloads.size()));
    }
    const Timestamp send_now = options_.clock->NowMicros();
    for (std::string& payload : payloads) {
      (void)options_.network->Send(send_now, options_.node_id, target,
                                   network::kTopicStream, std::move(payload));
    }
    return;
  }
  if (message.topic == network::kTopicUnsubscribe) {
    Result<network::UnsubscribeRequest> request =
        network::UnsubscribeRequest::Decode(message.payload);
    if (!request.ok()) return;
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
    subscribers_.erase(request->subscription_id);
    return;
  }
  if (message.topic == network::kTopicStream) {
    Result<network::StreamDelivery> delivery =
        network::StreamDelivery::Decode(message.payload);
    if (!delivery.ok()) return;
    // Integrity layer: drop elements whose signature does not verify.
    if (!delivery->signature.empty() &&
        !integrity_.Verify(delivery->sensor_name, delivery->element,
                           delivery->signature)) {
      GSN_LOG(kWarn, "container")
          << options_.node_id << ": dropped stream element with bad "
          << "signature from " << message.from;
      return;
    }
    RemoteStreamWrapper* wrapper = nullptr;
    {
      std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
      auto it = remote_subs_.find(delivery->subscription_id);
      if (it != remote_subs_.end()) {
        // A flowing delivery implies the producer registered us even
        // if the explicit ack was lost.
        it->second.acked = true;
        wrapper = it->second.wrapper;
      }
    }
    if (wrapper != nullptr) {
      // Restore the producer's trace context so this node's source
      // admission continues the cross-container trace.
      delivery->element.trace = delivery->trace;
      const RemoteStreamWrapper::PushOutcome outcome =
          wrapper->Push(delivery->element, delivery->sequence);
      if (outcome.duplicate) fed_dups_->Increment();
      if (outcome.gap_opened) fed_gaps_->Increment();
      // Admissions and parked futures prove the subscription is live;
      // pure duplicates below our cursor do not (a restarted producer
      // streams a fresh sequence space that dedups to nothing).
      if (outcome.admitted > 0 || outcome.gap_opened) {
        std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
        auto it = remote_subs_.find(delivery->subscription_id);
        if (it != remote_subs_.end()) {
          it->second.last_activity = options_.clock->NowMicros();
        }
      }
    }
    return;
  }
  GSN_LOG(kWarn, "container")
      << options_.node_id << ": unknown topic '" << message.topic << "'";
}

// -------------------------------------------------------------- Resilience

Container::PeerState& Container::PeerStateLocked(const std::string& peer,
                                                 Timestamp now) {
  auto [it, inserted] = peers_.try_emplace(peer);
  if (inserted) {
    it->second.last_seen = now;
    it->second.breaker =
        network::CircuitBreaker(options_.resilience.circuit);
    it->second.circuit_gauge = metrics_->GetGauge(
        "gsn_circuit_state",
        {{"node", options_.node_id}, {"peer", peer}},
        "Per-peer circuit state (0 closed, 1 open, 2 half-open)");
  }
  return it->second;
}

bool Container::PeerAllowsSendLocked(const std::string& peer, Timestamp now) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return true;  // no evidence against the peer
  return it->second.breaker.AllowSend(now);
}

bool Container::NotePeerAlive(const std::string& from, Timestamp now) {
  std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
  const bool new_peer = peers_.find(from) == peers_.end();
  PeerState& peer = PeerStateLocked(from, now);
  peer.last_seen = now;
  if (peer.breaker.RecordSuccess()) {
    GSN_LOG(kInfo, "container")
        << options_.node_id << ": circuit to " << from << " closed (peer back)";
  }
  peer.circuit_gauge->Set(
      static_cast<int64_t>(peer.breaker.StateAt(now)));
  return new_peer;
}

void Container::NotePeerError(const std::string& peer, const Status& error) {
  if (peer.empty() || peer == options_.node_id) return;
  const Timestamp now = options_.clock->NowMicros();
  std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
  // Only peers the resilience layer already tracks: transport errors
  // carry whatever id the connection had, which for unidentified
  // inbound links is a raw "ip:port" — creating breaker state (and a
  // gsn_circuit_state series) for those would leak garbage peers.
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  PeerState& state = it->second;
  if (state.breaker.RecordFailure(now)) {
    GSN_LOG(kWarn, "container")
        << options_.node_id << ": circuit to " << peer
        << " opened (transport: " << error.message() << ")";
  }
  state.circuit_gauge->Set(static_cast<int64_t>(state.breaker.StateAt(now)));
}

bool Container::TryFailoverLocked(const std::string& old_id, Timestamp now,
                                  std::vector<Outbound>* sends) {
  auto sub_it = remote_subs_.find(old_id);
  if (sub_it == remote_subs_.end()) return false;
  RemoteSubscription sub = sub_it->second;  // copy; re-keyed below

  const std::vector<DirectoryEntry> matches =
      directory_.Discover(sub.predicates);
  const DirectoryEntry* target = nullptr;
  const std::string wrapper_schema = sub.wrapper->output_schema().ToString();
  for (const DirectoryEntry& entry : matches) {
    if (entry.node_id == sub.peer_node) continue;
    if (!PeerAllowsSendLocked(entry.node_id, now)) continue;
    if (entry.output_schema.ToString() != wrapper_schema) continue;
    target = &entry;
    break;
  }
  if (target == nullptr) {
    // No alternative producer: keep the subscription and restart the
    // subscribe cycle against the current peer (it may come back).
    sub_it->second.acked = false;
    sub_it->second.subscribe_attempts = 0;
    sub_it->second.next_subscribe_at = now;
    return false;
  }

  const std::string new_id =
      options_.node_id + "#" + std::to_string(next_subscription_++);
  GSN_LOG(kInfo, "container")
      << options_.node_id << ": failing over subscription " << old_id
      << " from " << sub.peer_node << " to " << target->node_id << " ("
      << target->sensor_name << ") as " << new_id;

  // Fresh sequence space on the new producer.
  sub.wrapper->Rebind(target->node_id, target->sensor_name);
  sub.peer_node = target->node_id;
  sub.acked = false;
  sub.subscribe_attempts = 1;
  sub.next_subscribe_at =
      now + sub.retry.BackoffForAttempt(1, &resilience_rng_);
  sub.last_missing.clear();
  sub.nack_attempts = 0;
  sub.next_nack_at = 0;

  // Re-key the consumer deployment's subscription list in place; the
  // map lives under fed_mu_ (already held), so failover never needs to
  // reach into a shard.
  auto dep_it = subs_by_deployment_.find(sub.deployment_key);
  if (dep_it != subs_by_deployment_.end()) {
    for (std::string& id : dep_it->second) {
      if (id == old_id) id = new_id;
    }
  }

  network::SubscribeRequest request;
  request.subscription_id = new_id;
  request.sensor_name = target->sensor_name;
  request.subscriber_node = options_.node_id;
  sends->push_back(
      {target->node_id, network::kTopicSubscribe, request.Encode()});
  // Best-effort cancel on whoever held the old subscription.
  network::UnsubscribeRequest cancel;
  cancel.subscription_id = old_id;
  sends->push_back({"", network::kTopicUnsubscribe, cancel.Encode()});

  remote_subs_.erase(sub_it);
  remote_subs_[new_id] = std::move(sub);
  fed_failovers_->Increment();
  return true;
}

void Container::RestartSubscriptionLocked(const std::string& old_id,
                                          Timestamp now,
                                          std::vector<Outbound>* sends) {
  auto sub_it = remote_subs_.find(old_id);
  if (sub_it == remote_subs_.end()) return;
  RemoteSubscription sub = sub_it->second;  // copy; re-keyed below

  const std::string new_id =
      options_.node_id + "#" + std::to_string(next_subscription_++);
  GSN_LOG(kWarn, "container")
      << options_.node_id << ": subscription " << old_id
      << " went silent on live peer " << sub.peer_node
      << " (restarted producer?); resubscribing as " << new_id;

  // Fresh sequence space: the restarted producer numbers from 1 again,
  // and our old cursor would dedup its whole stream away.
  sub.wrapper->Rebind(sub.peer_node, sub.wrapper->remote_sensor());
  sub.acked = false;
  sub.subscribe_attempts = 1;
  sub.next_subscribe_at =
      now + sub.retry.BackoffForAttempt(1, &resilience_rng_);
  sub.last_missing.clear();
  sub.nack_attempts = 0;
  sub.next_nack_at = 0;
  sub.last_activity = now;

  auto dep_it = subs_by_deployment_.find(sub.deployment_key);
  if (dep_it != subs_by_deployment_.end()) {
    for (std::string& id : dep_it->second) {
      if (id == old_id) id = new_id;
    }
  }

  network::SubscribeRequest request;
  request.subscription_id = new_id;
  request.sensor_name = sub.wrapper->remote_sensor();
  request.subscriber_node = options_.node_id;
  sends->push_back(
      {sub.peer_node, network::kTopicSubscribe, request.Encode()});
  // If the producer does still hold the old subscription (a quiet
  // stream we misread), this cancel keeps it from double-streaming.
  network::UnsubscribeRequest cancel;
  cancel.subscription_id = old_id;
  sends->push_back({sub.peer_node, network::kTopicUnsubscribe, cancel.Encode()});

  remote_subs_.erase(sub_it);
  remote_subs_[new_id] = std::move(sub);
  fed_resubscribes_->Increment();
}

void Container::RunResilience(Timestamp now) {
  const Options::Resilience& config = options_.resilience;
  std::vector<Outbound> sends;
  bool heartbeat = false;
  std::vector<VirtualSensorSpec> republish;
  {
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);

    // Liveness beacon.
    if (now - last_heartbeat_ >= config.heartbeat_interval) {
      last_heartbeat_ = now;
      ++heartbeat_beat_;
      heartbeat = true;
    }

    // Silent peers accumulate circuit-breaker failures, one per
    // heartbeat interval past the timeout.
    for (auto& [peer_id, peer] : peers_) {
      if (now - peer.last_seen >= config.peer_timeout &&
          now - peer.last_failure_mark >= config.heartbeat_interval) {
        peer.last_failure_mark = now;
        if (peer.breaker.RecordFailure(now)) {
          GSN_LOG(kWarn, "container")
              << options_.node_id << ": circuit to " << peer_id << " opened";
        }
      }
      peer.circuit_gauge->Set(
          static_cast<int64_t>(peer.breaker.StateAt(now)));
    }

    // Consumer side: subscribe retries, gap repair, failover.
    std::vector<std::string> failover_candidates;
    std::vector<std::string> silent_subscriptions;
    for (auto& [sub_id, sub] : remote_subs_) {
      auto peer_it = peers_.find(sub.peer_node);
      const bool peer_open =
          peer_it != peers_.end() &&
          peer_it->second.breaker.StateAt(now) ==
              network::CircuitBreaker::State::kOpen;
      if (peer_open) {
        failover_candidates.push_back(sub_id);
        continue;
      }
      // Restart detection: the peer answers heartbeats but the stream
      // is silent past the tip cadence — after a producer crash the
      // subscriber table is gone while the redialed link looks
      // healthy, so nothing else would ever repair this subscription.
      // The silence clock only runs against a live peer; while the
      // peer is dark the breaker/failover machinery paces recovery.
      if (sub.acked && config.subscription_silence_timeout > 0) {
        const bool peer_alive =
            peer_it != peers_.end() &&
            now - peer_it->second.last_seen < config.peer_timeout;
        if (!peer_alive) {
          sub.last_activity = now;
        } else if (now - sub.last_activity >=
                   config.subscription_silence_timeout) {
          silent_subscriptions.push_back(sub_id);
          continue;
        }
      }
      if (!sub.acked) {
        if (now < sub.next_subscribe_at) continue;
        if (sub.retry.Exhausted(sub.subscribe_attempts)) {
          failover_candidates.push_back(sub_id);
          continue;
        }
        ++sub.subscribe_attempts;
        fed_retries_subscribe_->Increment();
        network::SubscribeRequest request;
        request.subscription_id = sub_id;
        request.sensor_name = sub.wrapper->remote_sensor();
        request.subscriber_node = options_.node_id;
        sends.push_back(
            {sub.peer_node, network::kTopicSubscribe, request.Encode()});
        sub.next_subscribe_at =
            now + sub.retry.BackoffForAttempt(sub.subscribe_attempts,
                                              &resilience_rng_);
        continue;
      }
      // Gap repair: NACK the missing ranges, pacing attempts only
      // while the missing set makes no progress.
      std::vector<network::SeqRange> missing = sub.wrapper->MissingRanges();
      if (missing.empty()) {
        sub.nack_attempts = 0;
        sub.last_missing.clear();
        continue;
      }
      if (missing != sub.last_missing) {
        sub.last_missing = missing;
        sub.nack_attempts = 0;  // progress — restart the budget
      }
      if (now < sub.next_nack_at) continue;
      if (sub.retry.Exhausted(sub.nack_attempts)) {
        // The producer can no longer replay these (evicted or gone):
        // give the head range up so the stream keeps flowing.
        const int lost = sub.wrapper->AbandonMissingThrough(missing.front().to);
        if (lost > 0) {
          fed_abandoned_->Increment(lost);
          GSN_LOG(kWarn, "container")
              << options_.node_id << ": abandoned " << lost
              << " irrecoverable deliveries on " << sub_id;
        }
        sub.nack_attempts = 0;
        sub.last_missing.clear();
        continue;
      }
      ++sub.nack_attempts;
      fed_retries_replay_->Increment();
      network::NackRequest nack;
      nack.subscription_id = sub_id;
      nack.ranges = std::move(missing);
      sends.push_back(
          {sub.peer_node, network::kTopicStreamNack, nack.Encode()});
      sub.next_nack_at =
          now + sub.retry.BackoffForAttempt(sub.nack_attempts,
                                            &resilience_rng_);
    }
    for (const std::string& sub_id : failover_candidates) {
      (void)TryFailoverLocked(sub_id, now, &sends);
    }
    for (const std::string& sub_id : silent_subscriptions) {
      RestartSubscriptionLocked(sub_id, now, &sends);
    }

    // Producer side: periodic delivery high-water marks let the
    // subscriber detect tail loss; also refresh the replay gauge.
    if (now - last_tip_ >= config.tip_interval) {
      last_tip_ = now;
      size_t replay_bytes = 0;
      for (const auto& [sub_id, subscriber] : subscribers_) {
        replay_bytes += subscriber.replay.bytes();
        // Tips go out even before the first delivery (last_sequence
        // 0): they are the subscriber's only liveness proof for a
        // quiet stream, and its restart detector keys on their cadence.
        if (!PeerAllowsSendLocked(subscriber.subscriber_node, now)) continue;
        network::StreamTip tip;
        tip.subscription_id = sub_id;
        tip.last_sequence = subscriber.next_seq - 1;
        sends.push_back(
            {subscriber.subscriber_node, network::kTopicStreamTip,
             tip.Encode()});
      }
      replay_bytes_->Set(static_cast<int64_t>(replay_bytes));
    }

    // Directory-publish retry rounds. Each pending entry carries its
    // own spec copy, so the retry never reaches into a shard's
    // deployment map (Undeploy purges entries for dead sensors).
    for (auto it = pending_publishes_.begin();
         it != pending_publishes_.end();) {
      if (now < it->next_at) {
        ++it;
        continue;
      }
      republish.push_back(it->spec);
      fed_retries_publish_->Increment();
      ++it->round;
      if (it->round > config.publish_rounds) {
        it = pending_publishes_.erase(it);
      } else {
        it->next_at =
            now + config.retry.BackoffForAttempt(it->round, &resilience_rng_);
        ++it;
      }
    }
  }

  if (heartbeat) {
    network::Heartbeat beat;
    beat.node_id = options_.node_id;
    beat.beat = heartbeat_beat_;
    (void)options_.network->Broadcast(now, options_.node_id,
                                      network::kTopicHeartbeat, beat.Encode());
  }
  for (Outbound& send : sends) {
    if (send.to.empty()) {
      (void)options_.network->Broadcast(now, options_.node_id, send.topic,
                                        send.payload);
    } else {
      (void)options_.network->Send(now, options_.node_id, send.to, send.topic,
                                   std::move(send.payload));
    }
  }
  for (const VirtualSensorSpec& spec : republish) PublishSensor(spec);
}

std::vector<Container::PeerStatus> Container::PeerStatuses() const {
  const Timestamp now = options_.clock->NowMicros();
  std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
  std::vector<PeerStatus> out;
  out.reserve(peers_.size());
  for (const auto& [peer_id, peer] : peers_) {
    PeerStatus status;
    status.node_id = peer_id;
    status.circuit =
        network::CircuitBreaker::StateName(peer.breaker.StateAt(now));
    status.last_seen = peer.last_seen;
    status.circuit_opened_total = peer.breaker.opened_total();
    out.push_back(std::move(status));
  }
  return out;
}

Result<Relation> Container::CatalogResolver::GetTable(
    const std::string& name) const {
  const std::string key = StrToLower(name);
  if (key == "gsn_sensors") {
    Schema schema;
    schema.AddField("name", DataType::kString);
    schema.AddField("state", DataType::kString);
    schema.AddField("pool_size", DataType::kInt);
    schema.AddField("triggers", DataType::kInt);
    schema.AddField("produced", DataType::kInt);
    schema.AddField("rate_limited", DataType::kInt);
    schema.AddField("errors", DataType::kInt);
    schema.AddField("restarts", DataType::kInt);
    schema.AddField("queue_depth", DataType::kInt);
    schema.AddField("shed", DataType::kInt);
    schema.AddField("stored_rows", DataType::kInt);
    schema.AddField("stored_bytes", DataType::kInt);
    schema.AddField("remote_subscribers", DataType::kInt);
    Relation rel(schema);
    for (const std::string& sensor : container_->ListSensors()) {
      Result<SensorStatus> status = container_->GetSensorStatus(sensor);
      if (!status.ok()) continue;
      (void)rel.AddRow(
          {Value::String(status->name),
           Value::String(SensorStateName(status->state)),
           Value::Int(status->pool_size), Value::Int(status->stats.triggers),
           Value::Int(status->stats.produced),
           Value::Int(status->stats.rate_limited),
           Value::Int(status->stats.errors),
           Value::Int(status->restart_attempts),
           Value::Int(static_cast<int64_t>(status->queue_depth)),
           Value::Int(status->shed),
           Value::Int(static_cast<int64_t>(status->stored_rows)),
           Value::Int(static_cast<int64_t>(status->stored_bytes)),
           Value::Int(status->remote_subscribers)});
    }
    return rel;
  }
  if (key == "gsn_wrappers") {
    Schema schema;
    schema.AddField("name", DataType::kString);
    Relation rel(schema);
    for (const std::string& wrapper : container_->registry_.Names()) {
      (void)rel.AddRow({Value::String(wrapper)});
    }
    return rel;
  }
  if (key == "gsn_directory") {
    Schema schema;
    schema.AddField("sensor", DataType::kString);
    schema.AddField("node", DataType::kString);
    schema.AddField("predicates", DataType::kString);
    schema.AddField("output_schema", DataType::kString);
    Relation rel(schema);
    for (const DirectoryEntry& entry : container_->Discover({})) {
      std::string predicates;
      for (const auto& [k, v] : entry.predicates) {
        if (!predicates.empty()) predicates += ",";
        predicates += k + "=" + v;
      }
      (void)rel.AddRow({Value::String(entry.sensor_name),
                        Value::String(entry.node_id),
                        Value::String(predicates),
                        Value::String(entry.output_schema.ToString())});
    }
    return rel;
  }
  return container_->tables_.GetTable(name);
}

Result<Relation> Container::CatalogResolver::GetTableFiltered(
    const std::string& name, const sql::ScanPredicate& predicate,
    sql::ScanStats* stats) const {
  const std::string key = StrToLower(name);
  // The gsn_* virtual tables are synthesized per query; no cold tier
  // to prune, so the predicate is left to the WHERE evaluation.
  if (key == "gsn_sensors" || key == "gsn_wrappers" || key == "gsn_directory") {
    return GetTable(name);
  }
  return container_->tables_.GetTableFiltered(name, predicate, stats);
}

std::vector<Container::TopologyEdge> Container::Topology() {
  std::vector<TopologyEdge> edges;
  for (const auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    for (const auto& [key, deployment] : shard->deployments) {
      const VirtualSensorSpec& spec = deployment->sensor->spec();
      for (const auto& stream : spec.input_streams) {
        for (const auto& source : stream.sources) {
          TopologyEdge edge;
          edge.to = spec.name;
          edge.label = stream.name + "/" + source.alias;
          if (StrEqualsIgnoreCase(source.address.wrapper, "remote")) {
            const vsensor::StreamSource* running =
                deployment->sensor->FindSource(stream.name, source.alias);
            const auto* remote =
                running == nullptr
                    ? nullptr
                    : dynamic_cast<const network::RemoteStreamWrapper*>(
                          &running->wrapper());
            edge.from = remote != nullptr
                            ? remote->peer_node() + ":" +
                                  remote->remote_sensor()
                            : "remote";
          } else {
            edge.from = source.address.wrapper + " device";
          }
          edges.push_back(std::move(edge));
        }
      }
    }
  }
  {
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
    for (const auto& [sub_id, subscriber] : subscribers_) {
      edges.push_back(TopologyEdge{subscriber.sensor_name,
                                   subscriber.subscriber_node + " (node)",
                                   "stream"});
    }
  }
  return edges;
}

// ------------------------------------------------------------ Introspection

Result<Container::SensorStatus> Container::GetSensorStatus(
    const std::string& sensor_name) const {
  const std::string key = StrToLower(sensor_name);
  SensorStatus status;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    auto it = shard.deployments.find(key);
    if (it == shard.deployments.end()) {
      return Status::NotFound("no such sensor: " + sensor_name);
    }
    const Deployment& deployment = *it->second;
    status.name = deployment.sensor->name();
    status.stats = deployment.sensor->stats();
    status.state = deployment.state;
    status.restart_attempts = deployment.restart_attempts;
    status.queue_depth = deployment.sensor->QueueDepth();
    status.shed = deployment.sensor->ShedCount();
    status.stored_rows = deployment.table->NumRows();
    status.stored_bytes = deployment.table->ApproximateBytes();
    // Ticks are driven by the shared worker pool now; the descriptor's
    // pool-size knob survives as declared parallelism for reporting.
    status.pool_size =
        std::max(1, deployment.sensor->spec().life_cycle.pool_size);
  }
  int64_t subs = 0;
  {
    std::lock_guard<telemetry::TimedMutex> lock(fed_mu_);
    for (const auto& [id, subscriber] : subscribers_) {
      if (StrEqualsIgnoreCase(subscriber.sensor_name, sensor_name)) ++subs;
    }
  }
  status.remote_subscribers = subs;
  return status;
}

}  // namespace gsn::container
