// Tests for the live container status surface: Container::GetStatus(),
// GET /api/v1/status, the argument-less management `status` command,
// and the build/uptime metric families behind GET /metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "gsn/container/management_interface.h"
#include "gsn/container/web_interface.h"

namespace gsn::container {
namespace {

using network::HttpRequest;
using network::HttpResponse;

constexpr char kSensorXml[] =
    "<virtual-sensor name=\"status-sensor\">"
    "<metadata><predicate key=\"type\" val=\"temperature\"/></metadata>"
    "<output-structure>"
    "  <field name=\"temperature\" type=\"integer\"/>"
    "</output-structure>"
    "<input-stream name=\"in\">"
    "  <stream-source alias=\"src\" storage-size=\"1m\">"
    "    <address wrapper=\"mote\">"
    "      <predicate key=\"interval-ms\" val=\"100\"/>"
    "    </address>"
    "    <query>select avg(temperature) from wrapper</query>"
    "  </stream-source>"
    "  <query>select * from src</query>"
    "</input-stream>"
    "</virtual-sensor>";

class ContainerStatusSurfaceTest : public ::testing::Test {
 protected:
  ContainerStatusSurfaceTest() {
    clock_ = std::make_shared<VirtualClock>();
    Container::Options options;
    options.node_id = "status-node";
    options.clock = clock_;
    container_ = std::make_unique<Container>(std::move(options));
  }

  void DeployAndRun() {
    ASSERT_TRUE(container_->Deploy(kSensorXml).ok());
    for (int i = 0; i < 10; ++i) {
      clock_->Advance(100 * kMicrosPerMilli);
      ASSERT_TRUE(container_->Tick().ok());
    }
  }

  std::shared_ptr<VirtualClock> clock_;
  std::unique_ptr<Container> container_;
};

TEST_F(ContainerStatusSurfaceTest, GetStatusJoinsSubsystems) {
  DeployAndRun();
  const Container::ContainerStatus status = container_->GetStatus();

  EXPECT_EQ(status.node_id, "status-node");
  EXPECT_FALSE(status.version.empty());
  EXPECT_FALSE(status.compiler.empty());
  EXPECT_FALSE(status.draining);
  EXPECT_TRUE(status.health.ready);

  // The totals are the same snapshot wrapper="system" streams.
  EXPECT_EQ(status.totals.sensors, 1);
  EXPECT_EQ(status.totals.running, 1);
  EXPECT_GT(status.totals.tuples_total, 0);
  EXPECT_GT(status.totals.metric_series, 0);
  EXPECT_GT(status.totals.rss_bytes, 0);

  ASSERT_EQ(status.sensors.size(), 1u);
  EXPECT_EQ(status.sensors[0].name, "status-sensor");
  EXPECT_GT(status.sensors[0].stats.produced, 0);

  // The instrumented container locks report by name.
  auto has_lock = [&](const std::string& name) {
    return std::any_of(
        status.locks.begin(), status.locks.end(),
        [&](const Container::LockStats& lock) { return lock.name == name; });
  };
  EXPECT_TRUE(has_lock("shard-0"));
  EXPECT_TRUE(has_lock("federation"));
  EXPECT_TRUE(has_lock("chaining"));
  EXPECT_TRUE(has_lock("query_cache"));
  for (const auto& lock : status.locks) {
    EXPECT_GE(lock.acquisitions, lock.contended) << lock.name;
  }

  // One status row per shard, and the deployed sensor is attributed to
  // exactly one of them.
  ASSERT_FALSE(status.shards.empty());
  size_t shard_sensors = 0;
  int64_t shard_ticks = 0;
  for (const auto& shard : status.shards) {
    shard_sensors += shard.sensors;
    shard_ticks += shard.ticks_total;
    EXPECT_GE(shard.lock_acquisitions, shard.lock_contended);
  }
  EXPECT_EQ(shard_sensors, 1u);
  EXPECT_GT(shard_ticks, 0);

  // The profiler saw the tick spans it meters.
  ASSERT_FALSE(status.hot_spans.empty());
  EXPECT_TRUE(std::any_of(
      status.hot_spans.begin(), status.hot_spans.end(),
      [](const Container::HotSpan& s) { return s.name == "tick"; }));
}

TEST_F(ContainerStatusSurfaceTest, WebStatusEndpointReturnsUnifiedJson) {
  DeployAndRun();
  WebInterface web(container_.get());
  HttpRequest request;
  request.method = "GET";
  request.path = "/api/v1/status";
  const HttpResponse response = web.Handle(request);

  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("application/json"),
            std::string::npos);
  for (const char* key :
       {"\"node\":\"status-node\"", "\"version\"", "\"totals\"",
        "\"sensors\"", "\"shards\"", "\"locks\"", "\"hot_spans\"",
        "\"recovery\"", "\"tick_p95_ms\"", "\"lock_wait_share\""}) {
    EXPECT_NE(response.body.find(key), std::string::npos)
        << key << " missing in " << response.body;
  }
  EXPECT_NE(response.body.find("status-sensor"), std::string::npos);
}

TEST_F(ContainerStatusSurfaceTest, ManagementStatusCommandBothForms) {
  DeployAndRun();
  ManagementInterface mgmt(container_.get());

  // No argument: the container-wide snapshot.
  const std::string wide = mgmt.Execute("status");
  EXPECT_NE(wide.find("status-node"), std::string::npos) << wide;
  EXPECT_NE(wide.find("status-sensor"), std::string::npos) << wide;
  EXPECT_NE(wide.find("lock"), std::string::npos) << wide;
  EXPECT_NE(wide.find("tick"), std::string::npos) << wide;

  // With a sensor argument: the existing per-sensor counters.
  const std::string narrow = mgmt.Execute("status status-sensor");
  EXPECT_NE(narrow.find("status-sensor"), std::string::npos) << narrow;
  EXPECT_EQ(narrow.find("hot spans"), std::string::npos) << narrow;
}

TEST_F(ContainerStatusSurfaceTest, BuildInfoAndUptimeAreMetricFamilies) {
  DeployAndRun();
  const std::string text = container_->metrics()->RenderPrometheus();
  EXPECT_NE(text.find("gsn_build_info"), std::string::npos);
  EXPECT_NE(text.find("gsn_uptime_seconds"), std::string::npos);
  // Build info carries the version as a label, value pinned to 1.
  EXPECT_NE(text.find("version=\""), std::string::npos);
}

}  // namespace
}  // namespace gsn::container
