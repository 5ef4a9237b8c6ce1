#include "scenario.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "gsn/util/rng.h"
#include "gsn/wrappers/generator_wrapper.h"

namespace perfbench {

namespace fs = std::filesystem;
using gsn::Status;
using gsn::Timestamp;
using gsn::kMicrosPerMilli;
using gsn::kMicrosPerSecond;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

namespace {

std::string GeneratorXml(const std::string& name, const std::string& metadata,
                         int interval_ms, int payload_bytes, int value_period,
                         const std::string& storage) {
  return "<virtual-sensor name=\"" + name + "\">" + metadata +
         "<output-structure>"
         "<field name=\"seq\" type=\"integer\"/>"
         "<field name=\"value\" type=\"double\"/>"
         "<field name=\"payload\" type=\"binary\"/>"
         "</output-structure>" +
         storage +
         "<input-stream name=\"in\">"
         // A one-element source window: each trigger emits exactly the
         // newest element, so every seq reaches the notification once
         // as long as ticks keep up with the 10 ms schedule.
         "<stream-source alias=\"src\" storage-size=\"1\">"
         "<address wrapper=\"generator\">"
         "<predicate key=\"interval-ms\" val=\"" +
         std::to_string(interval_ms) +
         "\"/>"
         "<predicate key=\"payload-bytes\" val=\"" +
         std::to_string(payload_bytes) +
         "\"/>"
         "<predicate key=\"value-period\" val=\"" +
         std::to_string(value_period) +
         "\"/>"
         "</address>"
         // `timed` is selected through both queries so the element keeps
         // its due-time stamp all the way to the notification.
         "<query>select timed, seq, value, payload from wrapper</query>"
         "</stream-source>"
         "<query>select timed, seq, value, payload from src</query>"
         "</input-stream></virtual-sensor>";
}

std::string DerivedXml(const std::string& name, const std::string& wrapper,
                       const std::string& key, const std::string& val) {
  return "<virtual-sensor name=\"" + name +
         "\">"
         "<output-structure>"
         "<field name=\"seq\" type=\"integer\"/>"
         "<field name=\"value\" type=\"double\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "<stream-source alias=\"src\" storage-size=\"1\">"
         "<address wrapper=\"" +
         wrapper + "\"><predicate key=\"" + key + "\" val=\"" + val +
         "\"/></address>"
         "<query>select timed, seq, value from wrapper</query>"
         "</stream-source>"
         "<query>select timed, seq, value from src</query>"
         "</input-stream></virtual-sensor>";
}

}  // namespace

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed) {
  gsn::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Inputs in;
  auto payload = [&] {
    const int base = kPayloadBytes;
    return static_cast<int>(rng.NextInt(base - base / 4, base + base / 4));
  };
  auto period = [&] { return static_cast<int>(rng.NextInt(50, 200)); };
  in.history = {
      "hist",
      GeneratorXml("hist", "", 1000, spec.history_payload, period(),
                   "<storage permanent-storage=\"true\" size=\"" +
                       std::to_string(spec.history_memory_s) + "s\"/>"),
      ""};
  for (int i = 0; i < spec.local_sensors; ++i) {
    const std::string name = "dev" + std::to_string(i);
    in.local.push_back(
        {name,
         GeneratorXml(name, "", 10, payload(), period(),
                      "<storage permanent-storage=\"true\" size=\"2s\"/>"),
         ""});
  }
  for (int i = 0; i < spec.chained && spec.local_sensors > 0; ++i) {
    const std::string name = "chain" + std::to_string(i);
    const std::string source =
        "dev" + std::to_string(rng.NextUint64(
                    static_cast<uint64_t>(spec.local_sensors)));
    in.local.push_back(
        {name, DerivedXml(name, "local", "name", source), source});
  }
  for (int i = 0; i < spec.continuous && spec.local_sensors > 0; ++i) {
    in.continuous.push_back(
        "select count(*) as n, max(seq) as m from dev" +
        std::to_string(
            rng.NextUint64(static_cast<uint64_t>(spec.local_sensors))));
  }
  for (int i = 0; i < spec.published; ++i) {
    const std::string name = "pub" + std::to_string(i);
    const std::string type = "perfbench-pub" + std::to_string(i);
    in.published.push_back(
        {name,
         GeneratorXml(name,
                      "<metadata><predicate key=\"type\" val=\"" + type +
                          "\"/></metadata>",
                      10, payload(), period(), ""),
         ""});
    const std::string mirror = "mir" + std::to_string(i);
    in.mirrors.push_back(
        {mirror, DerivedXml(mirror, "remote", "type", type), name});
  }
  // The capacity phase runs at least kCapacitySensors generators, so a
  // workload with an ingest trickle still measures pipelines rather than
  // the tick's fixed cost. The fillers keep no permanent storage: only
  // the workload's own sensors write a WAL.
  for (int i = spec.local_sensors + spec.published; i < kCapacitySensors;
       ++i) {
    const std::string name = "fill" + std::to_string(i);
    in.capacity_fill.push_back(
        {name, GeneratorXml(name, "", 10, payload(), period(), ""), ""});
  }
  in.query_seed = rng.NextUint64();
  return in;
}

// ---------------------------------------------------------------------------
// SensorLog
// ---------------------------------------------------------------------------

SensorLog::SensorLog(std::string name, Timestamp interval, bool starts_at_zero,
                     bool keep_rows)
    : name_(std::move(name)),
      interval_(interval),
      starts_at_zero_(starts_at_zero),
      keep_rows_(keep_rows) {}

void SensorLog::OnElement(const gsn::Schema& schema,
                          const gsn::StreamElement& e, Timestamp now,
                          Timestamp window_start, Timestamp window_end) {
  std::lock_guard<std::mutex> lock(mu_);
  if (seq_idx_ < 0) {
    seq_idx_ = static_cast<int>(schema.IndexOf("seq").value_or(0));
    value_idx_ = static_cast<int>(schema.IndexOf("value").value_or(1));
  }
  const int64_t seq = e.values[static_cast<size_t>(seq_idx_)].int_value();
  Tally& t = tally_;
  if (t.next_seq < 0) {
    t.anchor = e.timed - seq * interval_;
    t.next_seq = starts_at_zero_ ? 0 : seq;
    t.first_seq = t.next_seq;
  }
  if (seq < t.next_seq) {
    ++t.duplicates;
    return;
  }
  for (int64_t k = t.next_seq; k <= seq; ++k) {
    const Timestamp due = t.anchor + k * interval_;
    if (due >= window_start && due < window_end) {
      latencies_.emplace_back(due, now - due);
    }
  }
  t.skipped += seq - t.next_seq;
  t.next_seq = seq + 1;
  ++t.delivered;
  t.last_timed = e.timed;
  if (notified_at_.size() <= static_cast<size_t>(seq)) {
    notified_at_.resize(static_cast<size_t>(seq) + 1, -1);
  }
  notified_at_[static_cast<size_t>(seq)] = now;
  if (keep_rows_) {
    rows_.push_back(
        {e.timed, seq, e.values[static_cast<size_t>(value_idx_)].double_value()});
  }
}

SensorLog::Tally SensorLog::tally() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tally_;
}

std::vector<SensorLog::Sample> SensorLog::TakeLatencies() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(latencies_, {});
}

Timestamp SensorLog::NotifiedAt(int64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (seq < 0 || static_cast<size_t>(seq) >= notified_at_.size()) return -1;
  return notified_at_[static_cast<size_t>(seq)];
}

Timestamp SensorLog::last_timed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tally_.last_timed;
}

SensorLog::Answer SensorLog::Reference(const QueryParams& q) const {
  std::lock_guard<std::mutex> lock(mu_);
  Answer a;
  double sum = 0;
  auto it = std::upper_bound(
      rows_.begin(), rows_.end(), q.lo,
      [](Timestamp t, const Row& r) { return t < r.timed; });
  for (; it != rows_.end() && it->timed <= q.hi; ++it) {
    if (it->value > q.threshold && it->seq % q.stride == 0) {
      ++a.count;
      sum += it->value;
      a.max_seq = std::max(a.max_seq, it->seq);
    }
  }
  if (a.count > 0) a.avg = sum / static_cast<double>(a.count);
  return a;
}

void SensorLog::AddDeliverySample(Timestamp timed, int64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  delivery_.emplace_back(timed, micros);
}

std::vector<SensorLog::Sample> SensorLog::TakeDeliverySamples() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(delivery_, {});
}

Timestamp ShiftedClock::NowMicros() const {
  return gsn::SystemClock::Shared()->NowMicros() + offset_.load();
}

// ---------------------------------------------------------------------------
// Probes (traced run only)
// ---------------------------------------------------------------------------

namespace {

/// Times every Poll of the generator it wraps and records how late each
/// emitted element was relative to its due time.
class TimedWrapper : public gsn::wrappers::Wrapper {
 public:
  TimedWrapper(std::unique_ptr<gsn::wrappers::Wrapper> inner, Probes* probes,
               Tracer* tracer)
      : inner_(std::move(inner)), probes_(probes), tracer_(tracer) {}

  const gsn::Schema& output_schema() const override {
    return inner_->output_schema();
  }
  Status Start() override { return inner_->Start(); }
  void Stop() override { inner_->Stop(); }
  std::string type_name() const override { return inner_->type_name(); }

  gsn::Result<std::vector<gsn::StreamElement>> Poll(Timestamp now) override {
    if (!tracer_->recording()) return inner_->Poll(now);
    const int64_t start = SteadyNanos();
    gsn::Result<std::vector<gsn::StreamElement>> out = inner_->Poll(now);
    const int64_t end = SteadyNanos();
    probes_->polls.fetch_add(1);
    probes_->poll_ns.fetch_add(end - start);
    if (out.ok() && !out->empty()) {
      probes_->elements.fetch_add(static_cast<int64_t>(out->size()));
      {
        std::lock_guard<std::mutex> lock(probes_->late_mu);
        for (const gsn::StreamElement& e : *out) {
          probes_->late_us.push_back(now - e.timed);
        }
      }
      tracer_->Record("wrappers.poll", tracer_->NextId(),
                      probes_->current_tick_span.load(), start, end);
    }
    return out;
  }

 private:
  std::unique_ptr<gsn::wrappers::Wrapper> inner_;
  Probes* probes_;
  Tracer* tracer_;
};

/// Forwards to the real transport, counting peer-plane payload bytes.
class CountingTransport : public gsn::network::Transport {
 public:
  CountingTransport(gsn::network::Transport* inner, Probes* probes,
                    Tracer* tracer)
      : inner_(inner), probes_(probes), tracer_(tracer) {}

  Status RegisterNode(const std::string& node_id,
                      gsn::network::NetworkNode* node) override {
    return inner_->RegisterNode(node_id, node);
  }
  Status UnregisterNode(const std::string& node_id) override {
    return inner_->UnregisterNode(node_id);
  }
  Status Send(Timestamp now, const std::string& from, const std::string& to,
              const std::string& topic, std::string payload) override {
    if (tracer_->recording()) {
      probes_->peer_bytes.fetch_add(
          static_cast<int64_t>(payload.size() + topic.size()));
    }
    ScopedSpan span(tracer_, "network.send");
    return inner_->Send(now, from, to, topic, std::move(payload));
  }
  Status Broadcast(Timestamp now, const std::string& from,
                   const std::string& topic,
                   const std::string& payload) override {
    if (tracer_->recording()) {
      probes_->peer_bytes.fetch_add(
          static_cast<int64_t>(payload.size() + topic.size()));
    }
    return inner_->Broadcast(now, from, topic, payload);
  }
  int Pump(Timestamp now) override { return inner_->Pump(now); }
  std::vector<gsn::network::ConnectionStats> Connections() const override {
    return inner_->Connections();
  }
  Status ResetPeer(const std::string& peer) override {
    return inner_->ResetPeer(peer);
  }
  std::string transport_name() const override {
    return inner_->transport_name();
  }
  void SetErrorCallback(ErrorCallback callback) override {
    inner_->SetErrorCallback(std::move(callback));
  }
  void SetPeerUpCallback(PeerUpCallback callback) override {
    inner_->SetPeerUpCallback(std::move(callback));
  }

 private:
  gsn::network::Transport* inner_;
  Probes* probes_;
  Tracer* tracer_;
};

/// Pause between ticks of each pump.
constexpr Timestamp kTickInterval = 2 * kMicrosPerMilli;

void SleepMicros(Timestamp micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

}  // namespace

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

Scenario::Scenario(Options options) : options_(std::move(options)) {
  const Inputs& in = options_.inputs;
  logs_.push_back(std::make_unique<SensorLog>("hist", kMicrosPerSecond, true,
                                              /*keep_rows=*/true));
  for (const Inputs::Sensor& s : in.local) {
    logs_.push_back(
        std::make_unique<SensorLog>(s.name, kElementInterval, true, false));
  }
  for (const Inputs::Sensor& s : in.published) {
    logs_.push_back(
        std::make_unique<SensorLog>(s.name, kElementInterval, true, false));
  }
  for (const Inputs::Sensor& s : in.mirrors) {
    // A mirror joins the stream wherever its subscription lands.
    logs_.push_back(
        std::make_unique<SensorLog>(s.name, kElementInterval, false, false));
  }
}

Scenario::~Scenario() {
  if (http_ != nullptr) http_->Stop();
  web_.reset();
  if (a_ != nullptr) (void)a_->Shutdown();
  if (b_ != nullptr) (void)b_->Shutdown();
  // Transports stop before the containers they deliver to are destroyed
  // (the order EpollFederationTest uses).
  if (net_a_ != nullptr) net_a_->Stop();
  if (net_b_ != nullptr) net_b_->Stop();
  a_.reset();
  b_.reset();
  std::error_code ignored;
  fs::remove_all(options_.dir, ignored);
}

SensorLog* Scenario::log_named(const std::string& name) {
  for (const auto& log : logs_) {
    if (log->name() == name) return log.get();
  }
  return nullptr;
}

std::vector<SensorLog*> Scenario::ingest_logs() {
  std::vector<SensorLog*> out;
  const size_t n = 1 + options_.inputs.local.size() +
                   options_.inputs.published.size();
  for (size_t i = 0; i < n; ++i) out.push_back(logs_[i].get());
  return out;
}

std::vector<SensorLog*> Scenario::mirror_logs() {
  std::vector<SensorLog*> out;
  const size_t first = 1 + options_.inputs.local.size() +
                       options_.inputs.published.size();
  for (size_t i = first; i < logs_.size(); ++i) out.push_back(logs_[i].get());
  return out;
}

void Scenario::SetWindow(Timestamp start, Timestamp end) {
  window_start_.store(start);
  window_end_.store(end);
}

Status Scenario::DeployOn(gsn::container::Container* c,
                          const Inputs::Sensor& sensor) {
  SensorLog* log = log_named(sensor.name);
  ++deploys_attempted_;
  const int64_t start = SteadyNanos();
  Status status = Status::OK();
  {
    ScopedSpan span(options_.tracer, "container.deploy");
    gsn::Result<gsn::vsensor::VirtualSensor*> deployed = c->Deploy(sensor.xml);
    if (!deployed.ok()) status = deployed.status();
  }
  deploy_ms_.push_back(static_cast<double>(SteadyNanos() - start) / 1e6);
  if (status.ok()) {
    gsn::Clock* clock = c->clock();
    // A mirror also times each element from its producer's notification.
    SensorLog* producer =
        c == b_.get() ? log_named(sensor.source) : nullptr;
    auto channel = std::make_shared<gsn::container::CallbackChannel>(
        [this, log, clock, producer](const gsn::container::Notification& n) {
          const Timestamp now = clock->NowMicros();
          log->OnElement(n.schema, n.element, now, window_start_.load(),
                         window_end_.load());
          if (producer != nullptr && n.element.timed >= window_start_.load() &&
              n.element.timed < window_end_.load()) {
            const int64_t seq = n.element.values[0].int_value();
            const Timestamp sent = producer->NotifiedAt(seq);
            if (sent >= 0) log->AddDeliverySample(n.element.timed, now - sent);
          }
        });
    gsn::Result<int64_t> sub =
        c->notification_manager().Subscribe(sensor.name, "", channel);
    if (!sub.ok()) status = sub.status();
  }
  if (!status.ok()) {
    ++deploy_failures_;
    std::fprintf(stderr, "perfbench: deploy %s failed: %s\n",
                 sensor.name.c_str(), status.ToString().c_str());
  }
  return status;
}

Status Scenario::Build() {
  const Inputs& in = options_.inputs;
  const WorkloadSpec& spec = options_.spec;
  fs::create_directories(options_.dir + "/a");
  clock_ = std::make_shared<ShiftedClock>();
  Tracer* tracer = options_.tracer;
  const bool probes = tracer != nullptr && tracer->enabled();

  gsn::network::EpollTransport::Options net_options;
  net_options.metrics = &metrics_a_;
  net_a_ = std::make_unique<gsn::network::EpollTransport>(net_options);
  net_options.metrics = &metrics_b_;
  net_b_ = std::make_unique<gsn::network::EpollTransport>(net_options);
  GSN_RETURN_IF_ERROR(net_a_->Start());
  GSN_RETURN_IF_ERROR(net_b_->Start());
  GSN_RETURN_IF_ERROR(net_a_->ListenPeer(0));
  GSN_RETURN_IF_ERROR(net_b_->ListenPeer(0));
  net_a_->AddPeer("node-b", "127.0.0.1", net_b_->peer_port());
  net_b_->AddPeer("node-a", "127.0.0.1", net_a_->peer_port());
  gsn::network::Transport* transport_a = net_a_.get();
  if (probes) {
    counted_a_ =
        std::make_unique<CountingTransport>(net_a_.get(), &probes_, tracer);
    transport_a = counted_a_.get();
  }

  gsn::container::Container::Options oa;
  oa.node_id = "node-a";
  oa.clock = clock_;
  oa.seed = options_.seed;
  oa.storage_dir = options_.dir + "/a";
  oa.network = transport_a;
  oa.metrics = &metrics_a_;
  // One shard, ticked inline by its pump. With a pool of tick workers
  // every tick waited for whichever worker the host had preempted, and
  // on a shared 4-core VM the latencies followed the host's load: the
  // ingest p50's spread over ten seeds was 0.25-0.27 of its median with
  // 2 workers, 0.10-0.16 inline.
  oa.sharding.shards = 1;
  // Checkpoints run only where the benchmark calls them (see Build and
  // main.cc), never at a time set by the container's own period.
  oa.supervision.checkpoint_interval = 0;
  a_ = std::make_unique<gsn::container::Container>(std::move(oa));
  gsn::container::Container::Options ob;
  ob.node_id = "node-b";
  ob.clock = gsn::SystemClock::Shared();
  ob.seed = options_.seed + 1;
  ob.network = net_b_.get();
  ob.metrics = &metrics_b_;
  // One shard, ticked inline by its pump: the consumer would be another
  // machine in a deployment, so here it should take one core, not all.
  ob.sharding.shards = 1;
  b_ = std::make_unique<gsn::container::Container>(std::move(ob));

  if (probes) {
    a_->wrapper_registry().Register(
        "generator",
        [this, tracer](const gsn::wrappers::WrapperConfig& config)
            -> gsn::Result<std::unique_ptr<gsn::wrappers::Wrapper>> {
          GSN_ASSIGN_OR_RETURN(std::unique_ptr<gsn::wrappers::Wrapper> inner,
                               gsn::wrappers::GeneratorWrapper::Make(config));
          return std::unique_ptr<gsn::wrappers::Wrapper>(
              new TimedWrapper(std::move(inner), &probes_, tracer));
        });
  }

  // History: deploy in the past and step the clock forward one element
  // at a time, so all of it passes through the pipeline and the WAL.
  const Timestamp history = spec.history_minutes * 60 * kMicrosPerSecond;
  clock_->set_offset(-history - kMicrosPerSecond);
  GSN_RETURN_IF_ERROR(DeployOn(a_.get(), in.history));
  while (true) {
    GSN_RETURN_IF_ERROR(a_->Tick().status());
    if (clock_->offset() == -kElementInterval) break;
    clock_->set_offset(std::min<Timestamp>(
        -kElementInterval, clock_->offset() + kMicrosPerSecond));
  }

  // A generator's schedule starts at its first poll. Deploying each one
  // and ticking while the offset climbs the last element interval
  // spreads their phases evenly over it, so latency does not depend on
  // how one shared phase happens to line up with the pump. A chained
  // sensor is deployed with its source, before the source's first
  // element.
  std::vector<const Inputs::Sensor*> generators;
  for (const Inputs::Sensor& s : in.local) {
    if (s.source.empty()) generators.push_back(&s);
  }
  for (const Inputs::Sensor& s : in.published) generators.push_back(&s);
  for (size_t i = 0; i < generators.size(); ++i) {
    clock_->set_offset(-kElementInterval +
                       kElementInterval * static_cast<Timestamp>(i) /
                           static_cast<Timestamp>(generators.size()));
    (void)DeployOn(a_.get(), *generators[i]);
    for (const Inputs::Sensor& s : in.local) {
      if (s.source == generators[i]->name) (void)DeployOn(a_.get(), s);
    }
    GSN_RETURN_IF_ERROR(a_->Tick().status());
  }
  clock_->set_offset(0);
  for (const std::string& sql : in.continuous) {
    gsn::Result<int64_t> id = a_->query_manager().RegisterContinuous(
        sql, [this](const std::string&, const gsn::Relation&) {
          continuous_runs_.fetch_add(1);
        });
    if (!id.ok()) return id.status();
  }
  // The consumer finds each published sensor by predicate alone.
  const int64_t discover_deadline = SteadyNanos() + 10'000'000'000LL;
  for (size_t i = 0; i < in.mirrors.size(); ++i) {
    const std::string type = "perfbench-pub" + std::to_string(i);
    while (b_->Discover({{"type", type}}).empty()) {
      if (SteadyNanos() > discover_deadline) {
        return Status::Internal("node-b never discovered " + type);
      }
      SleepMicros(kMicrosPerMilli);
    }
    (void)DeployOn(b_.get(), in.mirrors[i]);
  }
  if (deploy_failures_ > 0) return Status::Internal("deploy failed");
  // Moves the evicted part of the history into columnar segments.
  Checkpoint();

  web_ = std::make_unique<gsn::container::WebInterface>(a_.get());
  gsn::network::EpollTransport::Options http_options;
  http_options.metrics = &metrics_a_;
  http_options.metrics_role = "http";
  http_ = std::make_unique<gsn::network::EpollTransport>(http_options);
  GSN_RETURN_IF_ERROR(http_->Start());
  GSN_RETURN_IF_ERROR(http_->ListenHttp(
      0, [this, tracer](const gsn::network::HttpRequest& request) {
        uint64_t parent = 0;
        if (tracer != nullptr && tracer->recording()) {
          parent = std::strtoull(
              request.HeaderOr("x-bench-span", "0").c_str(), nullptr, 10);
        }
        ScopedSpan span(tracer, "container.web_handle", parent);
        return web_->Handle(request);
      }));

  // Warm-up: caches fill, every mirror's subscription is live.
  PumpUntil(SteadyNanos() + 300'000'000);
  const int64_t warm_deadline = SteadyNanos() + 15'000'000'000LL;
  for (SensorLog* mirror : mirror_logs()) {
    while (mirror->tally().delivered == 0) {
      if (SteadyNanos() > warm_deadline) {
        return Status::Internal(mirror->name() + " never received data");
      }
      PumpUntil(SteadyNanos() + 20'000'000);
    }
  }
  return Status::OK();
}

void Scenario::Checkpoint() {
  const int64_t start = SteadyNanos();
  {
    ScopedSpan span(options_.tracer, "storage.checkpoint");
    const Status status = a_->Checkpoint();
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: checkpoint failed: %s\n",
                   status.ToString().c_str());
    }
  }
  checkpoint_us_.push_back((SteadyNanos() - start) / 1000);
}

void Scenario::PumpUntil(int64_t end_ns) {
  // One pump per container, as two gsnd daemons would each run their own
  // RealtimePump: a node-a checkpoint never holds up node-b's ticks.
  std::thread consumer([this, end_ns] {
    while (SteadyNanos() < end_ns) {
      {
        ScopedSpan span(options_.tracer, "container.tick.consumer");
        const gsn::Result<int> produced = b_->Tick();
        if (!produced.ok()) {
          std::fprintf(stderr, "perfbench: node-b tick failed: %s\n",
                       produced.status().ToString().c_str());
        }
      }
      SleepMicros(kTickInterval);
    }
  });
  while (SteadyNanos() < end_ns) {
    const int64_t start = SteadyNanos();
    {
      ScopedSpan span(options_.tracer, "container.tick");
      probes_.current_tick_span.store(span.id());
      const gsn::Result<int> produced = a_->Tick();
      if (!produced.ok()) {
        std::fprintf(stderr, "perfbench: node-a tick failed: %s\n",
                     produced.status().ToString().c_str());
      }
    }
    if (record_ticks_) tick_us_.push_back((SteadyNanos() - start) / 1000);
    SleepMicros(kTickInterval);
  }
  consumer.join();
}

gsn::Result<std::vector<double>> MeasureCapacity(const Inputs& inputs,
                                                 const std::string& dir,
                                                 uint64_t seed,
                                                 int tick_workers) {
  fs::create_directories(dir);
  auto clock = std::make_shared<gsn::VirtualClock>();
  gsn::telemetry::MetricRegistry metrics;
  gsn::container::Container::Options options;
  options.node_id = "capacity";
  options.clock = clock;
  options.seed = seed;
  options.storage_dir = dir;
  options.metrics = &metrics;
  options.sharding.tick_workers = tick_workers;
  // One worker means one shard ticked inline, as node-b runs: no hand-off
  // to a pool thread and back on every tick, whose wake-up latency on a
  // shared machine was a large part of the run-to-run spread.
  if (tick_workers == 1) options.sharding.shards = 1;
  options.supervision.checkpoint_interval = 0;
  std::vector<double> rates;
  {
    gsn::container::Container c(std::move(options));
    for (const Inputs::Sensor& s : inputs.local) {
      GSN_RETURN_IF_ERROR(c.Deploy(s.xml).status());
    }
    for (const Inputs::Sensor& s : inputs.published) {
      GSN_RETURN_IF_ERROR(c.Deploy(s.xml).status());
    }
    for (const Inputs::Sensor& s : inputs.capacity_fill) {
      GSN_RETURN_IF_ERROR(c.Deploy(s.xml).status());
    }
    for (const std::string& sql : inputs.continuous) {
      GSN_RETURN_IF_ERROR(
          c.query_manager()
              .RegisterContinuous(sql, [](const std::string&,
                                          const gsn::Relation&) {})
              .status());
    }
    auto step = [&] {
      clock->Advance(kElementInterval);
      return c.Tick().status();
    };
    for (int i = 0; i < 20; ++i) GSN_RETURN_IF_ERROR(step());
    for (int k = 0; k < kCapacitySlices; ++k) {
      const int64_t before = metrics.SumCounters("gsn_sensor_tuples_total");
      const int64_t start = SteadyNanos();
      for (int i = 0; i < kCapacitySteps / kCapacitySlices; ++i) {
        GSN_RETURN_IF_ERROR(step());
      }
      const int64_t n = metrics.SumCounters("gsn_sensor_tuples_total") - before;
      rates.push_back(static_cast<double>(n) /
                      (static_cast<double>(SteadyNanos() - start) / 1e9));
    }
    (void)c.Shutdown();
  }
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  return rates;
}

std::vector<int64_t> Scenario::TakeTickMicros() {
  return std::exchange(tick_us_, {});
}

std::vector<int64_t> Scenario::TakeCheckpointMicros() {
  return std::exchange(checkpoint_us_, {});
}

}  // namespace perfbench
