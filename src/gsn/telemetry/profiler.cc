#include "gsn/telemetry/profiler.h"

#include <cstdio>

#include <sys/resource.h>
#include <unistd.h>

namespace gsn::telemetry {

void TimedMutex::Instrument(MetricRegistry* registry, const std::string& name,
                            const Labels& extra) {
  if (registry == nullptr) return;
  Labels labels = extra;
  labels.emplace_back("lock", name);
  label_ = name;
  wait_micros_ = registry->GetHistogram(
      "gsn_lock_wait_micros", labels,
      "Wall time threads spent blocked acquiring this lock");
  acquisitions_ = registry->GetCounter("gsn_lock_acquisitions_total", labels,
                                       "Lock acquisitions");
  contended_ = registry->GetCounter(
      "gsn_lock_contended_total", labels,
      "Acquisitions that found the lock held and had to wait");
}

ProcessStats ReadProcessStats() {
  ProcessStats stats;
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    stats.cpu_seconds =
        static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
            1e6;
  }
  // /proc/self/statm: total pages, then resident pages.
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r");
      statm != nullptr) {
    long total = 0;
    long resident = 0;
    if (std::fscanf(statm, "%ld %ld", &total, &resident) == 2) {
      stats.rss_bytes =
          static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
    }
    std::fclose(statm);
  }
  return stats;
}

std::string BuildVersion() {
#ifdef GSN_VERSION
  return GSN_VERSION;
#else
  return "dev";
#endif
}

std::string BuildCompiler() {
#ifdef __VERSION__
  return __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace gsn::telemetry
