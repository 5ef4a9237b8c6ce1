// Reproduces Figure 3 of the paper: "GSN node under time-triggered
// load" — mean internal processing time per stream element as a
// function of the output interval (10..1000 ms), for stream element
// sizes (SES) from 15 bytes to 75 KB.
//
// Workload (paper §5): devices produce data items every 10, 25, 50,
// 100, 250, 500, and 1000 milliseconds; we measure the in-container
// processing time per element. The paper used 22 motes and 15 cameras
// in 4 networks; here each device is a time-triggered generator wrapper
// with a configurable payload, deployed as one virtual sensor with a
// 2-second time window and permanent storage (so payload bytes flow
// through the full pipeline: window scan, SQL, storage, persistence).
//
// Expected shape (paper): processing time is highest at small
// intervals, drops sharply as the interval grows, and converges to a
// near-constant floor at >= 250 ms (about 4 readings/second); larger
// SES curves sit above smaller ones.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/telemetry/metrics.h"

namespace {

using gsn::Timestamp;
using gsn::kMicrosPerMilli;
using gsn::kMicrosPerSecond;

std::string DeviceDescriptor(const std::string& name, int interval_ms,
                             int payload_bytes) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<output-structure>"
         "  <field name=\"seq\" type=\"integer\"/>"
         "  <field name=\"value\" type=\"double\"/>"
         "  <field name=\"payload\" type=\"binary\"/>"
         "</output-structure>"
         "<storage permanent-storage=\"true\" size=\"10s\"/>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"2s\">"
         "    <address wrapper=\"generator\">"
         "      <predicate key=\"interval-ms\" val=\"" +
         std::to_string(interval_ms) + "\"/>"
         "      <predicate key=\"payload-bytes\" val=\"" +
         std::to_string(payload_bytes) + "\"/>"
         "    </address>"
         // Window scan cost grows with the window population (high
         // rates => more elements in the 2s window), like the paper's
         // node under load.
         "    <query>select * from wrapper order by timed desc limit 1"
         "    </query>"
         "  </stream-source>"
         "  <query>select seq, value, payload from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

struct CellResult {
  double mean_ms = 0;
  double p95_ms = 0;
  long elements = 0;
  /// Scheduling columns (docs/TELEMETRY.md): wall time spent
  /// blocked on instrumented locks / queued at admission, as a share
  /// of total tick time. The evidence base for ROADMAP item 1.
  double lock_wait_share = 0;
  double queue_wait_share = 0;
};

/// Runs one (interval, SES) cell: `devices` sensors on one container
/// for `duration` of virtual time; returns the processing-time
/// distribution read from the cell's telemetry registry.
CellResult RunCell(int interval_ms, int payload_bytes, int devices,
                   Timestamp duration, const std::string& storage_dir) {
  auto clock = std::make_shared<gsn::VirtualClock>();
  // A per-cell registry keeps the histograms isolated between cells.
  gsn::telemetry::MetricRegistry registry;
  gsn::container::Container::Options options;
  options.node_id = "fig3";
  options.clock = clock;
  options.seed = 1234 + static_cast<uint64_t>(interval_ms) * 131 +
                 static_cast<uint64_t>(payload_bytes);
  options.storage_dir = storage_dir;
  options.metrics = &registry;
  gsn::container::Container container(std::move(options));

  for (int d = 0; d < devices; ++d) {
    auto deployed = container.Deploy(
        DeviceDescriptor("dev-" + std::to_string(d), interval_ms,
                         payload_bytes));
    if (!deployed.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n",
                   deployed.status().ToString().c_str());
      return {};
    }
  }

  const Timestamp step = static_cast<Timestamp>(interval_ms) *
                         kMicrosPerMilli;
  for (Timestamp t = 0; t < duration; t += step) {
    clock->Advance(step);
    (void)container.Tick();
  }

  CellResult result;
  // All devices of the cell share the registry: summing the per-sensor
  // families yields the node-wide processing-time distribution.
  const gsn::telemetry::Histogram::Snapshot processing =
      registry.SumHistograms("gsn_sensor_processing_micros");
  result.mean_ms = processing.count > 0 ? processing.Mean() / 1000.0 : 0.0;
  result.p95_ms = processing.count > 0 ? processing.Quantile(0.95) / 1000.0
                                       : 0.0;
  result.elements =
      static_cast<long>(registry.SumCounters("gsn_sensor_tuples_total"));
  // Contention profile of the cell: lock-wait and queue-wait micros
  // over total tick micros (all three live in the cell's registry).
  const gsn::telemetry::Histogram::Snapshot ticks =
      registry.SumHistograms("gsn_tick_micros");
  if (ticks.sum > 0) {
    result.lock_wait_share =
        static_cast<double>(
            registry.SumHistograms("gsn_lock_wait_micros").sum) /
        static_cast<double>(ticks.sum);
    result.queue_wait_share =
        static_cast<double>(
            registry.SumHistograms("gsn_queue_wait_micros").sum) /
        static_cast<double>(ticks.sum);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick shrinks the sweep for CI runs; --json additionally writes
  // the grid to BENCH_fig3.json for machine comparison across commits.
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
    if (std::string(argv[i]) == "--json") json = true;
  }

  const std::vector<int> intervals_ms = {10, 25, 50, 100, 250, 500, 1000};
  const std::vector<int> element_sizes = {15,        50,        100,
                                          16 * 1024, 32 * 1024, 75 * 1024};
  // Paper: 37 devices (22 motes + 15 cameras) in 4 networks on one
  // node. --quick uses 6 devices and a shorter horizon.
  const int devices = quick ? 6 : 37;
  const Timestamp duration = (quick ? 3 : 6) * kMicrosPerSecond;

  const std::string storage_dir =
      (std::filesystem::temp_directory_path() / "gsn_fig3_bench").string();
  std::filesystem::remove_all(storage_dir);
  std::filesystem::create_directories(storage_dir);

  std::printf("# Figure 3: GSN node under time-triggered load\n");
  std::printf("# %d devices per cell, %lld s of stream time per cell\n",
              devices, static_cast<long long>(duration / kMicrosPerSecond));
  std::printf("# rows: output interval (ms); columns: stream element size\n");
  std::printf("%-14s", "interval_ms");
  for (int ses : element_sizes) {
    std::string label = ses >= 1024 ? std::to_string(ses / 1024) + "KB"
                                    : std::to_string(ses) + "B";
    std::printf("%12s", label.c_str());
  }
  std::printf("\n");

  std::vector<std::vector<CellResult>> grid;
  for (int interval : intervals_ms) {
    std::printf("%-14d", interval);
    grid.emplace_back();
    for (int ses : element_sizes) {
      std::filesystem::remove_all(storage_dir);
      std::filesystem::create_directories(storage_dir);
      grid.back().push_back(
          RunCell(interval, ses, devices, duration, storage_dir));
      std::printf("%12.3f", grid.back().back().mean_ms);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("# cell = mean in-container processing time per stream "
              "element (ms)\n");
  std::printf("#\n# p95 per cell (ms), from the same telemetry "
              "histograms:\n");
  for (size_t r = 0; r < grid.size(); ++r) {
    std::printf("%-14d", intervals_ms[r]);
    for (const CellResult& cell : grid[r]) {
      std::printf("%12.3f", cell.p95_ms);
    }
    std::printf("\n");
  }
  std::printf("#\n# lock-wait share per cell (lock-wait micros / tick "
              "micros, contention profiler):\n");
  for (size_t r = 0; r < grid.size(); ++r) {
    std::printf("%-14d", intervals_ms[r]);
    for (const CellResult& cell : grid[r]) {
      std::printf("%12.4f", cell.lock_wait_share);
    }
    std::printf("\n");
  }
  std::printf("#\n# queue-wait share per cell (admission queue-wait micros "
              "/ tick micros):\n");
  for (size_t r = 0; r < grid.size(); ++r) {
    std::printf("%-14d", intervals_ms[r]);
    for (const CellResult& cell : grid[r]) {
      std::printf("%12.4f", cell.queue_wait_share);
    }
    std::printf("\n");
  }
  std::filesystem::remove_all(storage_dir);

  if (json) {
    std::FILE* f = std::fopen("BENCH_fig3.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_fig3.json\n");
      return 1;
    }
    std::fprintf(f, "{\n  \"figure\": 3,\n  \"devices\": %d,\n"
                 "  \"duration_s\": %lld,\n  \"cells\": [\n",
                 devices, static_cast<long long>(duration / kMicrosPerSecond));
    bool first = true;
    for (size_t r = 0; r < grid.size(); ++r) {
      for (size_t c = 0; c < grid[r].size(); ++c) {
        std::fprintf(f,
                     "%s    {\"interval_ms\": %d, \"ses_bytes\": %d, "
                     "\"mean_ms\": %.4f, \"p95_ms\": %.4f, \"elements\": %ld, "
                     "\"lock_wait_share\": %.6f, "
                     "\"queue_wait_share\": %.6f}",
                     first ? "" : ",\n", intervals_ms[r], element_sizes[c],
                     grid[r][c].mean_ms, grid[r][c].p95_ms,
                     grid[r][c].elements, grid[r][c].lock_wait_share,
                     grid[r][c].queue_wait_share);
        first = false;
      }
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote BENCH_fig3.json\n");
  }
  return 0;
}
