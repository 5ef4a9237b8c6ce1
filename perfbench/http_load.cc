#include "http_load.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <vector>

#include "gsn/util/rng.h"

namespace perfbench {
namespace {

/// How long after `end_ns` a queued or in-flight request may still finish.
constexpr int64_t kGraceNs = 2'000'000'000;

struct Conn {
  int fd = -1;
  bool busy = false;
  HttpOutcome current;
  uint64_t span_id = 0;
  std::string inbuf;
};

/// Writes all of `data` to a non-blocking socket, waiting out EAGAIN
/// (requests are a few hundred bytes, so this never waits in practice).
bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// Pops one complete response off the front of `inbuf` into `out`;
/// false until it is fully buffered.
bool TakeResponse(std::string* inbuf, HttpOutcome* out) {
  const size_t header_end = inbuf->find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  size_t body_len = 0;
  const size_t cl = inbuf->find("Content-Length:");
  if (cl != std::string::npos && cl < header_end) {
    body_len = static_cast<size_t>(
        std::strtoul(inbuf->c_str() + cl + 15, nullptr, 10));
  }
  const size_t total = header_end + 4 + body_len;
  if (inbuf->size() < total) return false;
  // "HTTP/1.1 200 OK"
  out->status = inbuf->size() > 12 ? std::atoi(inbuf->c_str() + 9) : 0;
  out->body = inbuf->substr(header_end + 4, body_len);
  inbuf->erase(0, total);
  return true;
}

void ArmTimer(int timer_fd, int64_t at_ns) {
  itimerspec spec{};
  spec.it_value.tv_sec = at_ns / 1'000'000'000;
  spec.it_value.tv_nsec = at_ns % 1'000'000'000;
  ::timerfd_settime(timer_fd, TFD_TIMER_ABSTIME, &spec, nullptr);
}

}  // namespace

std::string UrlEncode(const std::string& text) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : text) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

bool RunHttpLoad(const HttpLoadConfig& config,
                 const std::function<std::string(uint64_t)>& target,
                 const std::function<void(const HttpOutcome&)>& done) {
  std::vector<Conn> conns(static_cast<size_t>(config.connections));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config.port);
  const int ep = ::epoll_create1(0);
  // steady_clock is CLOCK_MONOTONIC, so due times and the timer agree.
  const int timer_fd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  bool ok = ep >= 0 && timer_fd >= 0;
  for (size_t i = 0; ok && i < conns.size(); ++i) {
    Conn& c = conns[i];
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ok = c.fd >= 0 &&
         ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) ==
             0 &&
         ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
             0;
    if (!ok) break;
    ::fcntl(c.fd, F_SETFL, O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
  }
  if (ok) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conns.size();
    ::epoll_ctl(ep, EPOLL_CTL_ADD, timer_fd, &ev);
  }

  // Due requests waiting for an idle connection, with their targets.
  std::deque<std::pair<HttpOutcome, std::string>> queued;
  uint64_t next_index = 0;
  const bool open_loop = config.interval_ns > 0;
  gsn::Rng arrivals(config.seed);
  int64_t next_due =
      config.start_ns + static_cast<int64_t>(
                            arrivals.NextDouble() *
                            static_cast<double>(config.interval_ns));
  const int64_t give_up = config.end_ns + kGraceNs;
  char buf[64 * 1024];
  epoll_event events[16];

  while (ok) {
    const int64_t now = SteadyNanos();
    if (open_loop) {
      while (next_due <= now && next_due < config.end_ns) {
        HttpOutcome req;
        req.index = next_index++;
        req.due_ns = next_due;
        queued.emplace_back(req, target(req.index));
        next_due = config.start_ns +
                   static_cast<int64_t>(
                       (static_cast<double>(next_index) + arrivals.NextDouble()) *
                       static_cast<double>(config.interval_ns));
      }
    } else if (now < config.end_ns) {
      size_t idle = 0;
      for (const Conn& c : conns) idle += c.busy ? 0 : 1;
      while (queued.size() < idle) {
        HttpOutcome req;
        req.index = next_index++;
        req.due_ns = now;
        queued.emplace_back(req, target(req.index));
      }
    }
    for (Conn& c : conns) {
      if (queued.empty()) break;
      if (c.busy || c.fd < 0) continue;
      c.current = queued.front().first;
      std::string request = "GET " + queued.front().second +
                            " HTTP/1.1\r\nHost: bench\r\n";
      queued.pop_front();
      c.span_id = 0;
      if (config.tracer != nullptr && config.tracer->recording()) {
        c.span_id = config.tracer->NextId();
        request += "X-Bench-Span: " + std::to_string(c.span_id) + "\r\n";
      }
      request += "\r\n";
      c.current.sent_ns = SteadyNanos();
      c.busy = true;
      if (!SendAll(c.fd, request)) {
        c.busy = false;
        c.current.status = 0;
        done(c.current);
        ::close(c.fd);
        c.fd = -1;
      }
    }

    bool in_flight = false;
    for (const Conn& c : conns) in_flight = in_flight || c.busy;
    const bool generating = open_loop ? next_due < config.end_ns
                                      : now < config.end_ns;
    if (!generating && !in_flight && queued.empty()) break;
    if (now >= give_up) break;

    int64_t wake = give_up;
    if (generating) wake = open_loop ? next_due : config.end_ns;
    ArmTimer(timer_fd, std::max<int64_t>(wake, now + 1000));
    const int n = ::epoll_wait(ep, events, 16, 100);
    for (int e = 0; e < n; ++e) {
      const size_t i = events[e].data.u64;
      if (i == conns.size()) {
        uint64_t expirations = 0;
        (void)!::read(timer_fd, &expirations, sizeof(expirations));
        continue;
      }
      Conn& c = conns[i];
      bool dead = false;
      for (;;) {
        const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          c.inbuf.append(buf, static_cast<size_t>(r));
        } else if (r == 0) {
          dead = true;
          break;
        } else {
          if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            dead = true;
          }
          break;
        }
      }
      if (c.busy && TakeResponse(&c.inbuf, &c.current)) {
        c.current.done_ns = SteadyNanos();
        c.busy = false;
        if (c.span_id != 0) {
          config.tracer->Record("network.http_request", c.span_id, 0,
                                c.current.sent_ns, c.current.done_ns);
        }
        done(c.current);
      }
      if (dead) {
        if (c.busy) {
          c.busy = false;
          c.current.status = 0;
          done(c.current);
        }
        ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
        ::close(c.fd);
        c.fd = -1;
      }
    }
    bool any_open = false;
    for (const Conn& c : conns) any_open = any_open || c.fd >= 0;
    if (!any_open) break;
  }

  // Whatever never completed counts as timed out.
  for (Conn& c : conns) {
    if (c.busy) {
      c.current.status = 0;
      done(c.current);
    }
    if (c.fd >= 0) ::close(c.fd);
  }
  for (const auto& [req, unsent_target] : queued) done(req);
  if (timer_fd >= 0) ::close(timer_fd);
  if (ep >= 0) ::close(ep);
  return ok;
}

}  // namespace perfbench
