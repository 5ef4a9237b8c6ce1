#ifndef PERFBENCH_HTTP_LOAD_H_
#define PERFBENCH_HTTP_LOAD_H_

#include <cstdint>
#include <functional>
#include <string>

#include "trace.h"

namespace perfbench {

/// One finished (or abandoned) request.
struct HttpOutcome {
  uint64_t index = 0;   // 0-based issue order
  int status = 0;       // HTTP status; 0 = timed out or connection lost
  std::string body;
  int64_t due_ns = 0;   // when the request was due (open loop) or issued
  int64_t sent_ns = 0;  // first byte written; 0 if never sent
  int64_t done_ns = 0;  // last byte of the response read
};

/// Single-threaded epoll HTTP/1.1 client over a few keep-alive
/// connections to 127.0.0.1, after the client in bench/bench_transport.cc.
///
/// Open loop (`interval_ns` > 0): request i falls due at a seeded random
/// point of [start + i*interval, start + (i+1)*interval), whether or not
/// earlier ones have completed; a due request waits for the first idle
/// connection, and its latency counts from the due time. A timerfd wakes
/// the loop at each due time. The jitter keeps arrivals from locking onto
/// the pump's period; the count per interval stays fixed.
///
/// Closed loop (`interval_ns` == 0): every connection issues its next
/// request as soon as the previous response arrives.
///
/// No request is issued at or after `end_ns`. Requests still queued or
/// in flight 2 s after `end_ns` are reported with status 0.
struct HttpLoadConfig {
  uint16_t port = 0;
  int connections = 1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t interval_ns = 0;
  uint64_t seed = 1;  // arrival times
  Tracer* tracer = nullptr;  // client spans "network.http_request"
};

/// Runs the load; `target(i)` returns the request target ("/api/v1/...")
/// of request i, called when the request becomes due. `done` sees every
/// request exactly once. Returns false if the connections could not be
/// opened (nothing was sent then).
bool RunHttpLoad(const HttpLoadConfig& config,
                 const std::function<std::string(uint64_t)>& target,
                 const std::function<void(const HttpOutcome&)>& done);

/// Percent-encodes everything but unreserved characters (RFC 3986).
std::string UrlEncode(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_LOAD_H_
