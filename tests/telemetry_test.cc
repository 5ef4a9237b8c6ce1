// Tests for the telemetry subsystem: metric primitives, the registry,
// the Span timing scope, Prometheus exposition, and the end-to-end path from a
// deployed sensor's pipeline to GET /metrics.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/container/management_interface.h"
#include "gsn/container/query_manager.h"
#include "gsn/container/web_interface.h"
#include "gsn/sql/executor.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/telemetry/tracing.h"
#include "gsn/util/logging.h"

namespace gsn::telemetry {
namespace {

// ---------------------------------------------------------------- Counter

TEST(CounterTest, IncrementAndReset) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Set(2);
  EXPECT_EQ(gauge.Value(), 2);
}

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, CountSumMax) {
  Histogram h;
  h.Observe(1);
  h.Observe(10);
  h.Observe(100);
  const Histogram::Snapshot snapshot = h.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 3);
  EXPECT_EQ(snapshot.sum, 111);
  EXPECT_EQ(snapshot.max, 100);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), 37.0);
}

TEST(HistogramTest, QuantileOfUniformDistribution) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Observe(v);
  const Histogram::Snapshot snapshot = h.TakeSnapshot();
  // Log buckets: quantiles are exact to within one power of two.
  const int64_t p50 = snapshot.Quantile(0.5);
  EXPECT_GE(p50, 250);
  EXPECT_LE(p50, 1000);
  const int64_t p95 = snapshot.Quantile(0.95);
  EXPECT_GE(p95, 475);
  EXPECT_LE(p95, 1000);
  // The top of the distribution is the exact max.
  EXPECT_EQ(snapshot.Quantile(1.0), 1000);
  EXPECT_EQ(snapshot.max, 1000);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.TakeSnapshot().Quantile(0.99), 0);
}

TEST(HistogramTest, ConcurrentObservesAreLossless) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(t * 1000 + i);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.TakeSnapshot().count, kThreads * kPerThread);
}

TEST(HistogramTest, MergeAccumulates) {
  Histogram a;
  Histogram b;
  a.Observe(5);
  b.Observe(50);
  Histogram::Snapshot merged = a.TakeSnapshot();
  Histogram::Merge(&merged, b.TakeSnapshot());
  EXPECT_EQ(merged.count, 2);
  EXPECT_EQ(merged.sum, 55);
  EXPECT_EQ(merged.max, 50);
}

// ------------------------------------------------------------------- Span
// telemetry::Span is the one timing scope: its histogram side, with the
// clock injected the one way there is (Tracer::Options::clock).

Tracer::Options ClockOnly(const Clock* clock) {
  Tracer::Options options;
  options.clock = clock;  // rate 0: the spans below time, never trace
  return options;
}

TEST(TelemetrySpanTest, ObservesVirtualClockDelta) {
  VirtualClock clock;
  Tracer tracer(ClockOnly(&clock));
  Histogram h;
  {
    Span span(&tracer, "unit", &h);
    clock.Advance(250);
  }
  const Histogram::Snapshot snapshot = h.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 1);
  EXPECT_EQ(snapshot.sum, 250);
  EXPECT_TRUE(tracer.store().Snapshot().empty());
}

TEST(TelemetrySpanTest, FinishReturnsElapsedAndDisarms) {
  VirtualClock clock;
  Tracer tracer(ClockOnly(&clock));
  Histogram h;
  Span span(&tracer, "unit", TraceContext(), &h);
  clock.Advance(70);
  EXPECT_EQ(span.Finish(), 70);
  clock.Advance(1000);
  EXPECT_EQ(span.Finish(), 0);  // second Finish is a no-op
  EXPECT_EQ(h.TakeSnapshot().count, 1);
}

/// Counts clock reads: an inert scope must take none.
class CountingClock : public Clock {
 public:
  Timestamp NowMicros() const override { return ++reads_; }
  int reads() const { return static_cast<int>(reads_); }

 private:
  mutable Timestamp reads_ = 0;
};

TEST(TelemetrySpanTest, NullHistogramWithoutTraceIsInert) {
  CountingClock clock;
  Tracer tracer(ClockOnly(&clock));
  {
    Span root(&tracer, "unit", nullptr);
    Span child(&tracer, "unit", TraceContext(), nullptr);
    EXPECT_EQ(child.Finish(), 0);
  }
  EXPECT_EQ(clock.reads(), 0);
  Histogram h;
  { Span timed(&tracer, "unit", &h); }
  EXPECT_EQ(clock.reads(), 2);  // one read to open, one to finish
}

// ---------------------------------------------------------------- Registry

TEST(MetricRegistryTest, GetOrCreateReturnsSameInstance) {
  MetricRegistry registry;
  auto a = registry.GetCounter("requests_total");
  auto b = registry.GetCounter("requests_total");
  EXPECT_EQ(a.get(), b.get());
  a->Increment();
  EXPECT_EQ(b->Value(), 1);
  EXPECT_EQ(registry.NumSeries(), 1u);
}

TEST(MetricRegistryTest, LabelsSeparateSeries) {
  MetricRegistry registry;
  auto a = registry.GetCounter("tuples_total", {{"sensor", "a"}});
  auto b = registry.GetCounter("tuples_total", {{"sensor", "b"}});
  EXPECT_NE(a.get(), b.get());
  a->Increment(3);
  b->Increment(4);
  EXPECT_EQ(registry.SumCounters("tuples_total"), 7);
  EXPECT_EQ(registry.NumSeries(), 2u);
}

TEST(MetricRegistryTest, TypeMismatchReturnsDetachedInstance) {
  MetricRegistry registry;
  (void)registry.GetCounter("mixed");
  auto gauge = registry.GetGauge("mixed");
  ASSERT_NE(gauge, nullptr);
  gauge->Set(9);  // usable, just not exported
  EXPECT_EQ(registry.NumSeries(), 1u);
  EXPECT_EQ(registry.RenderPrometheus().find("gauge"), std::string::npos);
}

TEST(MetricRegistryTest, RemoveWithLabelDropsTheSensorFamily) {
  MetricRegistry registry;
  auto doomed = registry.GetCounter("tuples_total", {{"sensor", "old"}});
  (void)registry.GetCounter("tuples_total", {{"sensor", "new"}});
  (void)registry.GetHistogram("latency_micros", {{"sensor", "old"}});
  EXPECT_EQ(registry.RemoveWithLabel("sensor", "old"), 2);
  EXPECT_EQ(registry.NumSeries(), 1u);
  // Cached handles outlive unregistration; they just stop being exported.
  doomed->Increment();
  EXPECT_EQ(doomed->Value(), 1);
  EXPECT_EQ(registry.RenderPrometheus().find("old"), std::string::npos);
}

TEST(MetricRegistryTest, SumHistogramsMergesTheFamily) {
  MetricRegistry registry;
  registry.GetHistogram("proc_micros", {{"sensor", "a"}})->Observe(10);
  registry.GetHistogram("proc_micros", {{"sensor", "b"}})->Observe(30);
  const Histogram::Snapshot merged = registry.SumHistograms("proc_micros");
  EXPECT_EQ(merged.count, 2);
  EXPECT_EQ(merged.sum, 40);
  EXPECT_EQ(registry.SumHistograms("absent").count, 0);
}

TEST(MetricRegistryTest, ConcurrentGetOrCreateIsSafe) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("shared_total")->Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.SumCounters("shared_total"), kThreads * 1000);
}

// ---------------------------------------------------------------- Exposition

TEST(RenderPrometheusTest, EmitsCountersGaugesAndHistograms) {
  MetricRegistry registry;
  registry
      .GetCounter("gsn_tuples_total", {{"sensor", "room1"}}, "Tuples emitted")
      ->Increment(5);
  registry.GetGauge("gsn_sensors_deployed", {}, "Deployed sensors")->Set(2);
  auto h = registry.GetHistogram("gsn_proc_micros", {}, "Processing time");
  h->Observe(3);
  h->Observe(300);

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP gsn_tuples_total Tuples emitted"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gsn_tuples_total counter"), std::string::npos);
  EXPECT_NE(text.find("gsn_tuples_total{sensor=\"room1\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gsn_sensors_deployed gauge"),
            std::string::npos);
  EXPECT_NE(text.find("gsn_sensors_deployed 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gsn_proc_micros histogram"), std::string::npos);
  EXPECT_NE(text.find("gsn_proc_micros_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("gsn_proc_micros_sum 303"), std::string::npos);
  EXPECT_NE(text.find("gsn_proc_micros_count 2"), std::string::npos);
}

TEST(RenderPrometheusTest, EscapesLabelValues) {
  MetricRegistry registry;
  registry.GetCounter("c_total", {{"path", "a\"b\\c\nd"}})->Increment();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("c_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

TEST(RenderPrometheusTest, EscapesHelpText) {
  MetricRegistry registry;
  registry.GetCounter("h_total", {}, "line1\nline2 back\\slash")->Increment();
  const std::string text = registry.RenderPrometheus();
  // Newlines and backslashes must be escaped per the exposition format
  // or the # HELP comment corrupts the scrape.
  EXPECT_NE(text.find("# HELP h_total line1\\nline2 back\\\\slash"),
            std::string::npos)
      << text;
}

// ------------------------------------------------------------ Query manager

/// Clock that jumps forward a fixed step on every read: each span
/// measures exactly `step`, making latency-threshold tests exact.
class SteppingClock : public Clock {
 public:
  explicit SteppingClock(Timestamp step) : step_(step) {}
  Timestamp NowMicros() const override { return now_ += step_; }

 private:
  const Timestamp step_;
  mutable Timestamp now_ = 0;
};

TEST(QueryManagerTelemetryTest, SlowQueryLogCountsOverThreshold) {
  storage::TableManager tables;
  Schema schema;
  schema.AddField("v", DataType::kInt);
  ASSERT_TRUE(tables.CreateTable("t", schema, WindowSpec{}).ok());

  MetricRegistry registry;
  container::QueryManager qm(&tables, &registry);
  SteppingClock stepping(1000);  // every span measures 1000 us
  Tracer tracer(ClockOnly(&stepping));
  qm.set_tracer(&tracer);

  qm.set_slow_query_micros(2000);  // above every span: nothing is slow
  ASSERT_TRUE(qm.Execute("select * from t").ok());
  EXPECT_EQ(qm.stats().slow_queries, 0);

  qm.set_slow_query_micros(500);  // below every span: everything is slow
  ASSERT_TRUE(qm.Execute("select v from t").ok());
  EXPECT_EQ(qm.stats().slow_queries, 1);
  EXPECT_EQ(registry.SumCounters("gsn_slow_queries_total"), 1);
}

TEST(SqlExecutorTelemetryTest, JoinCountersViewTracksRegistry) {
  sql::ResetJoinCounters();
  const sql::JoinCounters before = sql::GetJoinCounters();
  EXPECT_EQ(before.hash_joins, 0);
  EXPECT_EQ(before.nested_loop_joins, 0);
  EXPECT_GE(MetricRegistry::Default()->SumCounters(
                "gsn_sql_nested_loop_joins_total"),
            0);
}

// ------------------------------------------------------------- Integration

constexpr char kTelemetrySensorXml[] =
    "<virtual-sensor name=\"tele-sensor\">"
    "<metadata><predicate key=\"type\" val=\"generator\"/></metadata>"
    "<output-structure>"
    "  <field name=\"seq\" type=\"integer\"/>"
    "  <field name=\"value\" type=\"double\"/>"
    "</output-structure>"
    "<input-stream name=\"in\">"
    "  <stream-source alias=\"src\" storage-size=\"1m\">"
    "    <address wrapper=\"generator\">"
    "      <predicate key=\"interval-ms\" val=\"100\"/>"
    "    </address>"
    "    <query>select seq, value from wrapper</query>"
    "  </stream-source>"
    "  <query>select seq, value from src</query>"
    "</input-stream>"
    "</virtual-sensor>";

class TelemetryIntegrationTest : public ::testing::Test {
 protected:
  TelemetryIntegrationTest() {
    clock_ = std::make_shared<VirtualClock>();
    container::Container::Options options;
    options.node_id = "tele-node";
    options.clock = clock_;
    options.metrics = &registry_;
    container_ = std::make_unique<container::Container>(std::move(options));
  }

  void DeployAndRun() {
    ASSERT_TRUE(container_->Deploy(kTelemetrySensorXml).ok());
    for (int i = 0; i < 10; ++i) {
      clock_->Advance(100 * kMicrosPerMilli);
      ASSERT_TRUE(container_->Tick().ok());
    }
  }

  MetricRegistry registry_;
  std::shared_ptr<VirtualClock> clock_;
  std::unique_ptr<container::Container> container_;
};

TEST_F(TelemetryIntegrationTest, PipelineFillsTheSharedRegistry) {
  DeployAndRun();
  EXPECT_GT(registry_.SumCounters("gsn_sensor_tuples_total"), 0);
  EXPECT_GT(registry_.SumCounters("gsn_sensor_triggers_total"), 0);
  EXPECT_GT(registry_.SumCounters("gsn_wrapper_elements_total"), 0);
  // One-shot queries go through the container's query manager, which
  // shares the same registry.
  ASSERT_TRUE(container_->Query("select * from gsn_sensors").ok());
  EXPECT_EQ(registry_.SumCounters("gsn_queries_total"), 1);
  EXPECT_EQ(registry_.SumCounters("gsn_query_cache_misses_total"), 1);
  // Pipeline spans measure real wall time even under virtual stream
  // time: every trigger was observed.
  const Histogram::Snapshot processing =
      registry_.SumHistograms("gsn_sensor_processing_micros");
  EXPECT_EQ(processing.count,
            registry_.SumCounters("gsn_sensor_triggers_total"));
  // Stats views agree with the registry.
  auto status = container_->GetSensorStatus("tele-sensor");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->stats.produced,
            registry_.SumCounters("gsn_sensor_tuples_total"));
}

TEST_F(TelemetryIntegrationTest, TickHotSpanIsReadOffTheTickHistogram) {
  DeployAndRun();  // 10 ticks
  const container::Container::ContainerStatus status =
      container_->GetStatus();
  const Histogram::Snapshot tick =
      registry_.SumHistograms("gsn_tick_micros");
  ASSERT_EQ(tick.count, 10);
  bool found = false;
  for (size_t i = 0; i < status.hot_spans.size(); ++i) {
    const container::Container::HotSpan& span = status.hot_spans[i];
    EXPECT_GT(span.count, 0) << span.name;  // zero-count spans left out
    if (i > 0) {
      EXPECT_GE(status.hot_spans[i - 1].total_micros, span.total_micros);
    }
    if (span.name != "tick") continue;
    found = true;
    EXPECT_EQ(span.count, tick.count);
    EXPECT_EQ(span.total_micros, tick.sum);
    EXPECT_EQ(span.max_micros, tick.max);
  }
  EXPECT_TRUE(found);
}

TEST_F(TelemetryIntegrationTest, MetricsEndpointReflectsDeployedSensor) {
  DeployAndRun();
  // The join-strategy counters register in the default registry on
  // first use; touch them so the exposition includes the series.
  (void)sql::GetJoinCounters();
  container::WebInterface web(container_.get());
  network::HttpRequest request;
  request.method = "GET";
  request.path = "/api/v1/metrics";
  const network::HttpResponse response = web.Handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(response.body.find("gsn_sensor_tuples_total{sensor="
                               "\"tele-sensor\"}"),
            std::string::npos);
  EXPECT_NE(
      response.body.find("gsn_sensor_processing_micros_count{"),
      std::string::npos);
  EXPECT_NE(response.body.find("gsn_sensors_deployed{node=\"tele-node\"} 1"),
            std::string::npos);
  // Process-global series (join-strategy counters) are appended from
  // the default registry.
  EXPECT_NE(response.body.find("gsn_sql_nested_loop_joins_total"),
            std::string::npos);
}

TEST_F(TelemetryIntegrationTest, UndeployRetiresSensorSeries) {
  DeployAndRun();
  ASSERT_GT(registry_.SumCounters("gsn_sensor_tuples_total"), 0);
  ASSERT_TRUE(container_->Undeploy("tele-sensor").ok());
  EXPECT_EQ(registry_.SumCounters("gsn_sensor_tuples_total"), 0);
  container::WebInterface web(container_.get());
  network::HttpRequest request;
  request.method = "GET";
  request.path = "/api/v1/metrics";
  EXPECT_EQ(web.Handle(request).body.find("tele-sensor"), std::string::npos);
}

TEST_F(TelemetryIntegrationTest, ManagementMetricsAndSlowlogCommands) {
  DeployAndRun();
  container::ManagementInterface management(container_.get());
  const std::string metrics = management.Execute("metrics");
  EXPECT_NE(metrics.find("gsn_sensor_tuples_total{sensor=\"tele-sensor\"}"),
            std::string::npos);

  EXPECT_EQ(management.Execute("slowlog"), "slow-query log disabled\n");
  EXPECT_NE(management.Execute("slowlog 2500").find("2500"),
            std::string::npos);
  EXPECT_EQ(container_->query_manager().slow_query_micros(), 2500);
  EXPECT_NE(management.Execute("slowlog x").find("ERROR"), std::string::npos);
  EXPECT_EQ(management.Execute("slowlog 0"), "slow-query log disabled\n");
}

TEST_F(TelemetryIntegrationTest, TracesEndpointAndManagementCommands) {
  container::ManagementInterface management(container_.get());
  EXPECT_NE(management.Execute("trace").find("sample rate: 0"),
            std::string::npos);
  EXPECT_NE(management.Execute("trace 1").find("set to 1"),
            std::string::npos);
  EXPECT_NE(management.Execute("trace 2").find("ERROR"), std::string::npos);
  DeployAndRun();

  container::WebInterface web(container_.get());
  network::HttpRequest request;
  request.method = "GET";
  request.path = "/api/v1/traces";
  const network::HttpResponse response = web.Handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"wrapper.produce\""), std::string::npos);
  EXPECT_NE(response.body.find("\"vsensor.pipeline\""), std::string::npos);
  EXPECT_NE(response.body.find("\"node\":\"tele-node\""), std::string::npos);

  // Filtering by one trace id returns only that trace's spans.
  const std::vector<SpanRecord> spans =
      container_->tracer()->store().Snapshot();
  ASSERT_FALSE(spans.empty());
  const std::string id = spans.front().TraceIdHex();
  request.query["id"] = id;
  const network::HttpResponse one = web.Handle(request);
  EXPECT_EQ(one.status, 200);
  EXPECT_NE(one.body.find("\"trace\":\"" + id + "\""), std::string::npos);
  request.query["id"] = "not-a-trace-id";
  EXPECT_EQ(web.Handle(request).status, 400);

  const std::string listing = management.Execute("traces " + id);
  EXPECT_NE(listing.find("\"trace\":\"" + id + "\""), std::string::npos);
  EXPECT_NE(management.Execute("traces nope").find("ERROR"),
            std::string::npos);
}

TEST_F(TelemetryIntegrationTest, LogLinesInsideSpansCarryTheTraceId) {
  container_->tracer()->set_sample_rate(1.0);
  std::vector<std::string> lines;
  Logger::Instance().SetSink([&lines](const std::string& line) {
    lines.push_back(line);
  });
  TraceContext ctx;
  {
    Span span(container_->tracer(), "log.test");
    ctx = span.context();
    GSN_LOG(kWarn, "test") << "inside the span";
  }
  GSN_LOG(kWarn, "test") << "outside the span";
  Logger::Instance().SetSink(nullptr);

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("trace=" + ctx.TraceIdHex()), std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[1].find("trace="), std::string::npos) << lines[1];
}

TEST_F(TelemetryIntegrationTest, ExplainAnalyzeOverWebAndManagement) {
  DeployAndRun();
  container::WebInterface web(container_.get());
  network::HttpRequest request;
  request.method = "GET";
  request.path = "/api/v1/explain";
  request.query["sql"] = "select count(*) from \"tele-sensor\"";
  const network::HttpResponse plain = web.Handle(request);
  EXPECT_EQ(plain.status, 200);
  EXPECT_EQ(plain.body.find("rows="), std::string::npos);
  request.query["analyze"] = "1";
  const network::HttpResponse analyzed = web.Handle(request);
  EXPECT_EQ(analyzed.status, 200);
  EXPECT_NE(analyzed.body.find("rows="), std::string::npos) << analyzed.body;

  container::ManagementInterface management(container_.get());
  const std::string plan = management.Execute(
      "explain analyze select count(*) from \"tele-sensor\"");
  EXPECT_NE(plan.find("rows="), std::string::npos) << plan;
}

}  // namespace
}  // namespace gsn::telemetry
