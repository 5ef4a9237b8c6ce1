#include "gsn/network/epoll_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "gsn/util/logging.h"

namespace gsn::network {

namespace {

Timestamp SteadyMicros() {
  return telemetry::SteadyClock::Instance()->NowMicros();
}

void PutU32(std::string* out, uint32_t value) {
  out->push_back(static_cast<char>(value & 0xff));
  out->push_back(static_cast<char>((value >> 8) & 0xff));
  out->push_back(static_cast<char>((value >> 16) & 0xff));
  out->push_back(static_cast<char>((value >> 24) & 0xff));
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Wire frame of the peer plane: u32 body length, then four
/// length-prefixed strings (from, to, topic, payload). `to` is empty
/// for broadcasts. Built in one reserved string, outside any lock.
std::string EncodeFrame(const std::string& from, const std::string& to,
                        const std::string& topic,
                        const std::string& payload) {
  const size_t body_len =
      16 + from.size() + to.size() + topic.size() + payload.size();
  std::string frame;
  frame.reserve(4 + body_len);
  PutU32(&frame, static_cast<uint32_t>(body_len));
  PutString(&frame, from);
  PutString(&frame, to);
  PutString(&frame, topic);
  PutString(&frame, payload);
  return frame;
}

/// Consumes one length-prefixed string from the front of `in`.
bool GetString(std::string_view* in, std::string* out) {
  if (in->size() < 4) return false;
  const uint32_t len = GetU32(in->data());
  in->remove_prefix(4);
  if (in->size() < len) return false;
  out->assign(in->data(), len);
  in->remove_prefix(len);
  return true;
}

/// Nagle plus the peer's delayed ACK can hold a small write for ~40 ms.
/// Not fatal on failure (like SO_REUSEADDR).
void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// A write buffer above this capacity is shrunk to fit when it compacts.
constexpr size_t kOutbufSlackBytes = 64 * 1024;

std::string AddrToString(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

const char* KindName(int kind) {
  switch (kind) {
    case 0:
      return "peer-out";
    case 1:
      return "peer-in";
    default:
      return "http";
  }
}

}  // namespace

EpollTransport::EpollTransport() : EpollTransport(Options()) {}

EpollTransport::EpollTransport(Options options)
    : options_(std::move(options)),
      ops_(options_.socket_ops != nullptr ? options_.socket_ops
                                          : SocketOps::Real()),
      redial_rng_(options_.redial_seed) {
  if (options_.metrics != nullptr) {
    const telemetry::Labels labels = {{"role", options_.metrics_role}};
    connections_gauge_ = options_.metrics->GetGauge(
        "gsn_transport_connections", labels, "Open transport connections");
    accepted_counter_ = options_.metrics->GetCounter(
        "gsn_transport_accepted_total", labels,
        "Connections accepted since start");
    queued_bytes_gauge_ = options_.metrics->GetGauge(
        "gsn_transport_queued_bytes", labels,
        "Bytes waiting in per-connection write queues");
    timeouts_counter_ = options_.metrics->GetCounter(
        "gsn_transport_timeouts_total", labels,
        "Connections closed by the idle/read timeout");
    overflows_counter_ = options_.metrics->GetCounter(
        "gsn_transport_overflows_total", labels,
        "Connections closed by write-queue overflow (backpressure)");
    http_requests_counter_ = options_.metrics->GetCounter(
        "gsn_transport_http_requests_total", labels,
        "HTTP requests served across all connections");
    accept_errors_counter_ = options_.metrics->GetCounter(
        "gsn_transport_accept_errors_total", labels,
        "Accept failures (EMFILE/ENFILE pause the listener)");
    dial_failures_counter_ = options_.metrics->GetCounter(
        "gsn_transport_dial_failures_total", labels,
        "Peer dial/handshake failures (includes connect timeouts)");
    reconnects_counter_ = options_.metrics->GetCounter(
        "gsn_transport_reconnects_total", labels,
        "Peer links re-established after a failure");
    resets_counter_ = options_.metrics->GetCounter(
        "gsn_transport_resets_total", labels,
        "Connections torn down by a forced reset");
  }
}

EpollTransport::~EpollTransport() { Stop(); }

Status EpollTransport::Start() {
  if (running_.load()) return Status::AlreadyExists("transport running");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IoError("epoll_create1() failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::IoError("eventfd() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  running_.store(true);
  loop_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void EpollTransport::Stop() {
  if (!running_.exchange(false)) return;
  WakeLoop();
  if (loop_.joinable()) loop_.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  peer_conns_.clear();
  flush_pending_.clear();
  reset_pending_.clear();
  dial_states_.clear();
  paused_listeners_.clear();
  pending_deliveries_.clear();
  pending_peer_ups_.clear();
  pending_errors_.clear();
  total_out_bytes_ = 0;
  const int peer_listen = peer_listen_fd_.exchange(-1);
  if (peer_listen >= 0) ::close(peer_listen);
  const int http_listen = http_listen_fd_.exchange(-1);
  if (http_listen >= 0) ::close(http_listen);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  wake_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  UpdateGaugesLocked();
}

Result<int> EpollTransport::MakeListener(uint16_t port, uint16_t* bound_port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("bind() failed on port " + std::to_string(port));
  }
  if (::listen(fd, 511) != 0) {
    ::close(fd);
    return Status::IoError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

Status EpollTransport::ListenPeer(uint16_t port) {
  if (!running_.load()) return Status::Unavailable("transport not started");
  if (peer_listen_fd_.load() >= 0) {
    return Status::AlreadyExists("peer listener already bound");
  }
  uint16_t bound = 0;
  Result<int> fd = MakeListener(port, &bound);
  GSN_RETURN_IF_ERROR(fd.status());
  peer_port_.store(bound);
  peer_listen_fd_.store(*fd);
  peer_plane_active_.store(true);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = *fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, *fd, &ev);
  GSN_LOG(kInfo, "transport") << "peer plane listening on 127.0.0.1:"
                              << bound;
  return Status::OK();
}

Status EpollTransport::ListenHttp(uint16_t port, HttpHandler handler) {
  if (!running_.load()) return Status::Unavailable("transport not started");
  if (http_listen_fd_.load() >= 0) {
    return Status::AlreadyExists("http listener already bound");
  }
  uint16_t bound = 0;
  Result<int> fd = MakeListener(port, &bound);
  GSN_RETURN_IF_ERROR(fd.status());
  {
    std::lock_guard<std::mutex> lock(mu_);
    http_handler_ = std::move(handler);
  }
  http_port_.store(bound);
  http_listen_fd_.store(*fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = *fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, *fd, &ev);
  GSN_LOG(kInfo, "transport") << "http plane listening on 127.0.0.1:"
                              << bound;
  return Status::OK();
}

void EpollTransport::AddPeer(const std::string& node_id,
                             const std::string& host, uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  peer_addrs_[node_id] = {host, port};
  peer_plane_active_.store(true);
}

Status EpollTransport::RegisterNode(const std::string& node_id,
                                    NetworkNode* node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = local_nodes_.try_emplace(node_id, node);
  if (!inserted) {
    return Status::AlreadyExists("node already registered: " + node_id);
  }
  return Status::OK();
}

Status EpollTransport::UnregisterNode(const std::string& node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (local_nodes_.erase(node_id) == 0) {
    return Status::NotFound("node not registered: " + node_id);
  }
  return Status::OK();
}

void EpollTransport::SetErrorCallback(ErrorCallback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  error_callback_ = std::move(callback);
}

void EpollTransport::SetPeerUpCallback(PeerUpCallback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  peer_up_callback_ = std::move(callback);
}

Status EpollTransport::ResetPeer(const std::string& peer) {
  if (!running_.load()) return Status::Unavailable("transport not started");
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [fd, conn] : conns_) {
      if (conn->kind != ConnKind::kHttp && conn->peer == peer) {
        reset_pending_.insert(fd);
      }
    }
  }
  WakeLoop();  // closes happen on the loop thread (HandleWake)
  return Status::OK();
}

Status EpollTransport::Send(Timestamp now, const std::string& from,
                            const std::string& to, const std::string& topic,
                            std::string payload) {
  if (!running_.load()) return Status::Unavailable("transport not started");
  const std::string frame = EncodeFrame(from, to, topic, payload);
  NetworkNode* local = nullptr;
  Status status = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = local_nodes_.find(to);
    if (it != local_nodes_.end()) {
      local = it->second;
    } else {
      status = EnqueueFrameLocked(to, frame);
    }
  }
  if (local != nullptr) {
    Message message;
    message.from = from;
    message.to = to;
    message.topic = topic;
    message.payload = std::move(payload);
    message.sent_at = now;
    message.deliver_at = now;
    local->OnMessage(message);
    return Status::OK();
  }
  WakeLoop();
  return status;
}

Status EpollTransport::Broadcast(Timestamp now, const std::string& from,
                                 const std::string& topic,
                                 const std::string& payload) {
  if (!running_.load()) return Status::Unavailable("transport not started");
  const std::string frame = EncodeFrame(from, "", topic, payload);
  std::vector<std::pair<std::string, NetworkNode*>> locals;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::set<std::string> remote_targets;
    for (const auto& [node_id, addr] : peer_addrs_) {
      remote_targets.insert(node_id);
    }
    for (const auto& [node_id, fd] : peer_conns_) {
      remote_targets.insert(node_id);
    }
    remote_targets.erase(from);
    for (const auto& [node_id, node] : local_nodes_) {
      if (node_id == from) continue;
      locals.emplace_back(node_id, node);
      remote_targets.erase(node_id);
    }
    for (const std::string& target : remote_targets) {
      // Best effort: a down peer fails its own enqueue, not the round.
      (void)EnqueueFrameLocked(target, frame);
    }
  }
  for (auto& [node_id, node] : locals) {
    Message message;
    message.from = from;
    message.to = node_id;
    message.topic = topic;
    message.payload = payload;
    message.sent_at = now;
    message.deliver_at = now;
    node->OnMessage(message);
  }
  WakeLoop();
  return Status::OK();
}

std::vector<ConnectionStats> EpollTransport::Connections() const {
  const Timestamp steady = SteadyMicros();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ConnectionStats> out;
  out.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    ConnectionStats stats;
    stats.peer = conn->peer;
    stats.kind = KindName(static_cast<int>(conn->kind));
    stats.state = conn->connecting ? "connecting"
                  : conn->want_close ? "draining"
                                     : "open";
    stats.queued_bytes = conn->queued();
    stats.requests_served = conn->requests_served;
    stats.frames_in = conn->frames_in;
    stats.frames_out = conn->frames_out;
    stats.age_micros = steady - conn->opened_steady;
    stats.idle_micros = steady - conn->last_activity_steady;
    out.push_back(std::move(stats));
  }
  return out;
}

size_t EpollTransport::connection_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conns_.size();
}

// ------------------------------------------------------------- Shared path

Status EpollTransport::EnqueueFrameLocked(const std::string& to,
                                          std::string_view frame) {
  Conn* conn = nullptr;
  auto it = peer_conns_.find(to);
  if (it != peer_conns_.end()) {
    auto conn_it = conns_.find(it->second);
    if (conn_it != conns_.end()) conn = conn_it->second.get();
  }
  if (conn == nullptr) conn = DialLocked(to, /*force=*/false);
  if (conn == nullptr) {
    return Status::Unavailable("no route to node: " + to);
  }
  if (conn->want_close) {
    return Status::Unavailable("connection to " + to + " closing");
  }
  // Occupancy check: a queue already at its bound means the peer is
  // not draining; one frame may exceed the bound so oversized frames
  // still pass when the link is healthy.
  if (conn->queued() >= options_.max_write_queue_bytes) {
    // Backpressure: drop the queue and disconnect the slow peer; the
    // resilience layer above re-delivers via NACK/replay.
    overflows_total_.fetch_add(1);
    if (overflows_counter_) overflows_counter_->Increment();
    total_out_bytes_ -= conn->queued();
    conn->outbuf.clear();
    conn->out_off = 0;
    conn->want_close = true;
    flush_pending_.insert(conn->fd);
    pending_errors_.emplace_back(
        conn->peer, Status::ResourceExhausted("write queue overflow"));
    UpdateGaugesLocked();
    return Status::ResourceExhausted("write queue overflow to " + to);
  }
  conn->outbuf.append(frame);
  total_out_bytes_ += frame.size();
  ++conn->frames_out;
  flush_pending_.insert(conn->fd);
  UpdateGaugesLocked();
  return Status::OK();
}

EpollTransport::Conn* EpollTransport::DialLocked(const std::string& node_id,
                                                 bool force) {
  auto addr_it = peer_addrs_.find(node_id);
  if (addr_it == peer_addrs_.end()) return nullptr;
  const Timestamp steady = SteadyMicros();
  auto ds_it = dial_states_.find(node_id);
  if (ds_it != dial_states_.end() && !force) {
    DialState& ds = ds_it->second;
    if (ds.auto_pending && steady < ds.next_redial_steady) {
      return nullptr;  // backing off; the loop redials when due
    }
    if (!ds.auto_pending && options_.redial_policy.Exhausted(ds.attempts)) {
      ds.attempts = 0;  // explicit Send restarts an exhausted cycle
    }
  }
  const int fd =
      ops_->Socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    NoteDialFailureLocked(
        node_id, Status::IoError(std::string("socket() failed: ") +
                                 std::strerror(errno) + " (peer " + node_id +
                                 ")"));
    return nullptr;
  }
  SetNoDelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(addr_it->second.second);
  if (::inet_pton(AF_INET, addr_it->second.first.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    NoteDialFailureLocked(node_id,
                          Status::InvalidArgument("bad peer address '" +
                                                  addr_it->second.first +
                                                  "' (peer " + node_id + ")"));
    return nullptr;
  }
  const int rc =
      ops_->Connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    connect_failures_total_.fetch_add(1);
    const std::string detail = std::strerror(errno);
    ::close(fd);
    NoteDialFailureLocked(node_id,
                          Status::Unavailable("dial failed: " + detail +
                                              " (peer " + node_id + ")"));
    return nullptr;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->kind = ConnKind::kPeerOut;
  conn->peer = node_id;
  conn->connecting = rc != 0;
  conn->opened_steady = steady;
  conn->last_activity_steady = conn->opened_steady;
  if (conn->connecting && options_.connect_timeout_micros > 0) {
    conn->connect_deadline_steady = steady + options_.connect_timeout_micros;
  }
  Conn* raw = conn.get();
  conns_[fd] = std::move(conn);
  peer_conns_[node_id] = fd;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  if (!raw->connecting) {
    pending_peer_ups_.push_back(node_id);
    NoteDialSuccessLocked(node_id);
  }
  UpdateGaugesLocked();
  return raw;
}

void EpollTransport::NoteDialFailureLocked(const std::string& peer,
                                           const Status& reason) {
  dial_failures_total_.fetch_add(1);
  if (dial_failures_counter_) dial_failures_counter_->Increment();
  pending_errors_.emplace_back(peer, reason);
  ScheduleRedialLocked(peer, SteadyMicros());
}

void EpollTransport::NoteDialSuccessLocked(const std::string& peer) {
  auto it = dial_states_.find(peer);
  if (it == dial_states_.end()) return;
  if (it->second.attempts > 0) {
    reconnects_total_.fetch_add(1);
    if (reconnects_counter_) reconnects_counter_->Increment();
  }
  dial_states_.erase(it);
}

void EpollTransport::ScheduleRedialLocked(const std::string& peer,
                                          Timestamp steady_now) {
  if (!options_.auto_redial || !running_.load()) return;
  if (peer_addrs_.count(peer) == 0) return;  // not a dial-table peer
  DialState& ds = dial_states_[peer];
  ds.attempts += 1;
  if (options_.redial_policy.Exhausted(ds.attempts)) {
    // Give up automatically; the next explicit Send restarts the cycle.
    ds.auto_pending = false;
    ds.next_redial_steady = 0;
    return;
  }
  ds.auto_pending = true;
  ds.next_redial_steady =
      steady_now +
      options_.redial_policy.BackoffForAttempt(ds.attempts, &redial_rng_);
}

void EpollTransport::WakeLoop() {
  const uint64_t one = 1;
  if (wake_fd_ >= 0) {
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void EpollTransport::UpdateGaugesLocked() {
  if (connections_gauge_) {
    connections_gauge_->Set(static_cast<int64_t>(conns_.size()));
  }
  if (queued_bytes_gauge_) {
    queued_bytes_gauge_->Set(static_cast<int64_t>(total_out_bytes_));
  }
}

// --------------------------------------------------------------- Event loop

void EpollTransport::LoopMain() {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  while (running_.load()) {
    int timeout_ms = 500;
    if (options_.idle_timeout_micros > 0) {
      const Timestamp quarter = options_.idle_timeout_micros / 4;
      timeout_ms = static_cast<int>(std::clamp<Timestamp>(
          quarter / kMicrosPerMilli, 10, 500));
    }
    // The peer plane needs the maintenance cadence (connect deadlines,
    // redial backoffs, paused-listener re-arms) even when idle.
    if (peer_plane_active_.load()) timeout_ms = std::min(timeout_ms, 50);
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (!running_.load()) break;
      if (fd == wake_fd_) {
        uint64_t drain = 0;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
      } else if (fd == peer_listen_fd_.load()) {
        AcceptReady(fd, ConnKind::kPeerIn);
      } else if (fd == http_listen_fd_.load()) {
        AcceptReady(fd, ConnKind::kHttp);
      } else {
        ConnReady(fd, events[i].events);
      }
    }
    HandleWake();
    const Timestamp steady = SteadyMicros();
    if (peer_plane_active_.load() &&
        steady - last_maintain_steady_ >= 50 * kMicrosPerMilli) {
      last_maintain_steady_ = steady;
      std::lock_guard<std::mutex> lock(mu_);
      MaintainLocked(steady);
    }
    if (options_.idle_timeout_micros > 0 &&
        steady - last_sweep_steady_ >=
            std::max<Timestamp>(options_.idle_timeout_micros / 4,
                                10 * kMicrosPerMilli)) {
      last_sweep_steady_ = steady;
      std::lock_guard<std::mutex> lock(mu_);
      SweepIdleLocked(steady);
    }
    FirePending();
  }
}

void EpollTransport::HandleWake() {
  std::set<int> pending;
  std::set<int> resets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    resets.swap(reset_pending_);
    for (const int fd : resets) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      resets_total_.fetch_add(1);
      if (resets_counter_) resets_counter_->Increment();
      CloseConnLocked(it->second.get(),
                      Status::Unavailable("connection reset (forced)"));
    }
    pending.swap(flush_pending_);
    for (const int fd : pending) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      if (conn->connecting) continue;
      FlushLocked(conn);
    }
  }
}

void EpollTransport::AcceptReady(int listen_fd, ConnKind kind) {
  for (;;) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int fd =
        ops_->Accept4(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len,
                      SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;
      if (err == EINTR || err == ECONNABORTED) continue;
      accept_errors_total_.fetch_add(1);
      if (accept_errors_counter_) accept_errors_counter_->Increment();
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        // Fd/memory exhaustion: the listener is level-triggered, so
        // returning here would spin epoll_wait hot. Unregister it and
        // re-arm after accept_rearm_micros; pending connections wait
        // in the backlog meanwhile.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd, nullptr);
        std::lock_guard<std::mutex> lock(mu_);
        paused_listeners_[listen_fd] =
            SteadyMicros() + options_.accept_rearm_micros;
        GSN_LOG(kInfo, "transport")
            << "accept paused " << options_.accept_rearm_micros / 1000
            << "ms: " << std::strerror(err);
      }
      return;
    }
    accepted_total_.fetch_add(1);
    if (accepted_counter_) accepted_counter_->Increment();
    SetNoDelay(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->kind = kind;
    conn->peer = AddrToString(addr);
    conn->opened_steady = SteadyMicros();
    conn->last_activity_steady = conn->opened_steady;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    std::lock_guard<std::mutex> lock(mu_);
    conns_[fd] = std::move(conn);
    UpdateGaugesLocked();
  }
}

void EpollTransport::ConnReady(int fd, uint32_t events) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  if (events & EPOLLERR) {
    if (conn->connecting) connect_failures_total_.fetch_add(1);
    CloseConnLocked(conn, Status::IoError("socket error (peer " + conn->peer +
                                          ")"));
    return;
  }
  if (conn->connecting && (events & (EPOLLOUT | EPOLLHUP))) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      connect_failures_total_.fetch_add(1);
      CloseConnLocked(conn,
                      Status::Unavailable(std::string("connect failed: ") +
                                          std::strerror(err) + " (peer " +
                                          conn->peer + ")"));
      return;
    }
    // SO_ERROR == 0 is not proof the connect completed: a socket whose
    // connect never reached the kernel (the chaos stall fault) also
    // reports 0 but has no peer — leave it connecting so the deadline
    // in MaintainLocked reclaims it.
    sockaddr_in peer_addr{};
    socklen_t peer_len = sizeof(peer_addr);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer_addr),
                      &peer_len) == 0) {
      conn->connecting = false;
      conn->connect_deadline_steady = 0;
      pending_peer_ups_.push_back(conn->peer);
      NoteDialSuccessLocked(conn->peer);
    } else if ((events & (EPOLLIN | EPOLLRDHUP)) == 0) {
      return;  // still connecting; nothing to read or flush yet
    }
  }
  if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) {
    if (!ReadReady(conn)) return;  // `lock` still held; conn is gone
  }
  // Re-find: ReadReady may release mu_ around handlers, but only the
  // loop destroys conns, so `conn` is still ours if it survived.
  if (!conn->connecting) FlushLocked(conn);
}

bool EpollTransport::ReadReady(Conn* conn) {
  // Caller holds mu_. Reads until EAGAIN/EOF, then parses.
  const int fd = conn->fd;
  char buf[65536];
  for (;;) {
    const ssize_t n = ops_->Recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      conn->last_activity_steady = SteadyMicros();
      continue;
    }
    if (n == 0) {
      conn->read_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnLocked(conn, Status::IoError(std::string("read failed: ") +
                                          std::strerror(errno) + " (peer " +
                                          conn->peer + ")"));
    return false;
  }
  // mu_ is held by the caller; the Process* helpers unlock it around
  // delivery/handler calls via the member pending queues or directly.
  if (conn->kind == ConnKind::kHttp) {
    ProcessHttpInput(conn);
  } else {
    ProcessPeerInput(conn);
  }
  auto it = conns_.find(fd);
  if (it == conns_.end() || it->second.get() != conn) return false;
  if (conn->read_closed && conn->queued() == 0) {
    CloseConnLocked(conn, Status::OK());
    return false;
  }
  return true;
}

void EpollTransport::ProcessPeerInput(Conn* conn) {
  // Caller holds mu_. Frames decode under the lock from a cursor into
  // inbuf; deliveries queue on pending_deliveries_ and fire from
  // FirePending outside it.
  const std::string_view in = conn->inbuf;
  size_t pos = 0;
  for (;;) {
    if (in.size() - pos < 4) break;
    const size_t body_len = GetU32(in.data() + pos);
    if (body_len > options_.max_frame_bytes) {
      CloseConnLocked(conn, Status::ParseError("oversized frame"));
      return;
    }
    if (in.size() - pos - 4 < body_len) break;
    std::string_view body = in.substr(pos + 4, body_len);
    pos += 4 + body_len;
    ++conn->frames_in;
    Message message;
    if (!GetString(&body, &message.from) || !GetString(&body, &message.to) ||
        !GetString(&body, &message.topic) ||
        !GetString(&body, &message.payload) || !body.empty()) {
      CloseConnLocked(conn, Status::ParseError("malformed frame"));
      return;
    }
    const Timestamp steady = SteadyMicros();
    message.sent_at = steady;
    message.deliver_at = steady;
    // NAT-friendly reply routing: any frame identifies its sender, and
    // replies prefer this live link over dialing back.
    if (!message.from.empty()) {
      auto route = peer_conns_.find(message.from);
      const bool had_route =
          route != peer_conns_.end() && conns_.count(route->second) > 0;
      peer_conns_[message.from] = conn->fd;
      conn->peer = message.from;
      if (!had_route) {
        pending_peer_ups_.push_back(message.from);
        // The peer reached us: connectivity is back even if our own
        // dials were failing — stop the redial cycle.
        NoteDialSuccessLocked(message.from);
      }
    }
    if (message.to.empty()) {
      for (const auto& [node_id, node] : local_nodes_) {
        if (node_id == message.from) continue;
        Message copy = message;
        copy.to = node_id;
        pending_deliveries_.push_back({node, std::move(copy)});
      }
    } else {
      auto node_it = local_nodes_.find(message.to);
      if (node_it != local_nodes_.end()) {
        pending_deliveries_.push_back({node_it->second, std::move(message)});
      }
    }
    frames_delivered_total_.fetch_add(1);
  }
  conn->inbuf.erase(0, pos);
}

void EpollTransport::ProcessHttpInput(Conn* conn) {
  // Caller holds mu_; released around the handler (it may serialize
  // large container snapshots) and re-taken to enqueue the response.
  // Only the loop thread touches inbuf, so the cursor into it survives
  // the unlocked handler call.
  std::unique_lock<std::mutex> lock(mu_, std::adopt_lock);
  const std::string_view in = conn->inbuf;
  size_t pos = 0;
  for (;;) {
    const Result<size_t> length = HttpRequestLength(in.substr(pos));
    if (!length.ok()) {
      CloseConnLocked(conn, length.status());
      lock.release();
      return;
    }
    if (*length == 0) break;
    const std::string_view raw = in.substr(pos, *length);
    pos += *length;
    ++conn->requests_served;
    http_requests_total_.fetch_add(1);
    if (http_requests_counter_) http_requests_counter_->Increment();
    const HttpHandler handler = http_handler_;
    lock.unlock();
    Result<HttpRequest> request = ParseHttpRequest(raw);
    HttpResponse response;
    bool keep_alive = false;
    if (!request.ok()) {
      response = HttpResponse::Error(400, request.status().message());
    } else if (handler == nullptr) {
      response = HttpResponse::Error(503, "no handler");
    } else {
      keep_alive = request->WantsKeepAlive();
      response = handler(*request);
    }
    const std::string bytes = SerializeHttpResponse(response, keep_alive);
    lock.lock();
    // Same occupancy rule as the peer plane: a slow reader whose queue
    // sits at the bound is disconnected; one response may exceed it.
    if (conn->queued() >= options_.max_write_queue_bytes) {
      overflows_total_.fetch_add(1);
      if (overflows_counter_) overflows_counter_->Increment();
      CloseConnLocked(conn,
                      Status::ResourceExhausted("write queue overflow"));
      lock.release();
      return;
    }
    conn->outbuf.append(bytes);
    total_out_bytes_ += bytes.size();
    UpdateGaugesLocked();
    if (!keep_alive) {
      conn->want_close = true;
      break;
    }
  }
  conn->inbuf.erase(0, pos);
  lock.release();  // caller keeps holding mu_
}

void EpollTransport::FlushLocked(Conn* conn) {
  // Everything queued leaves in one send; a short write resumes.
  while (conn->queued() > 0) {
    const ssize_t n = ops_->Send(conn->fd, conn->outbuf.data() + conn->out_off,
                                 conn->queued(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnLocked(conn, Status::IoError(std::string("write failed: ") +
                                            std::strerror(errno) + " (peer " +
                                            conn->peer + ")"));
      return;
    }
    conn->out_off += static_cast<size_t>(n);
    total_out_bytes_ -= static_cast<size_t>(n);
    conn->last_activity_steady = SteadyMicros();
  }
  // Compact once the sent prefix is at least what is left (amortised
  // O(1) per byte) and give back the capacity a burst left behind.
  if (conn->out_off >= conn->queued()) {
    conn->outbuf.erase(0, conn->out_off);
    conn->out_off = 0;
    if (conn->outbuf.capacity() > kOutbufSlackBytes) {
      conn->outbuf.shrink_to_fit();
    }
  }
  UpdateGaugesLocked();
  if (conn->queued() == 0 && (conn->want_close || conn->read_closed)) {
    CloseConnLocked(conn, Status::OK());
  }
}

void EpollTransport::CloseConnLocked(Conn* conn, const Status& reason,
                                     bool allow_redial) {
  const int fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  total_out_bytes_ -= conn->queued();
  for (auto it = peer_conns_.begin(); it != peer_conns_.end();) {
    if (it->second == fd) {
      it = peer_conns_.erase(it);
    } else {
      ++it;
    }
  }
  flush_pending_.erase(fd);
  reset_pending_.erase(fd);
  if (!reason.ok()) {
    pending_errors_.emplace_back(conn->peer, reason);
  }
  if (conn->kind != ConnKind::kHttp && !reason.ok() && allow_redial) {
    // A failed dial-table peer link comes back via backoff redial; a
    // lost handshake additionally counts as a dial failure.
    if (conn->connecting) {
      dial_failures_total_.fetch_add(1);
      if (dial_failures_counter_) dial_failures_counter_->Increment();
    }
    ScheduleRedialLocked(conn->peer, SteadyMicros());
  }
  conns_.erase(fd);  // destroys *conn
  UpdateGaugesLocked();
}

void EpollTransport::SweepIdleLocked(Timestamp steady_now) {
  std::vector<int> idle;
  for (const auto& [fd, conn] : conns_) {
    if (steady_now - conn->last_activity_steady >
        options_.idle_timeout_micros) {
      idle.push_back(fd);
    }
  }
  for (const int fd : idle) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    timeouts_total_.fetch_add(1);
    if (timeouts_counter_) timeouts_counter_->Increment();
    // Deliberate reaping: an idle peer must not bounce straight back.
    CloseConnLocked(it->second.get(), Status::Timeout("idle timeout"),
                    /*allow_redial=*/false);
  }
}

void EpollTransport::MaintainLocked(Timestamp steady_now) {
  // 1. Connect deadlines: a non-blocking connect that never completed
  // (unreachable peer, or the chaos stall fault) is failed here and
  // enters the backoff redial cycle.
  std::vector<int> expired;
  for (const auto& [fd, conn] : conns_) {
    if (conn->connecting && conn->connect_deadline_steady > 0 &&
        steady_now >= conn->connect_deadline_steady) {
      expired.push_back(fd);
    }
  }
  for (const int fd : expired) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    connect_failures_total_.fetch_add(1);
    CloseConnLocked(
        it->second.get(),
        Status::Timeout(
            "connect timeout after " +
            std::to_string(options_.connect_timeout_micros / 1000) +
            "ms (peer " + it->second->peer + ")"));
  }
  // 2. Due redials. Collect first: dialing mutates dial_states_.
  std::vector<std::string> due;
  for (const auto& [peer, ds] : dial_states_) {
    if (ds.auto_pending && steady_now >= ds.next_redial_steady &&
        peer_conns_.count(peer) == 0) {
      due.push_back(peer);
    }
  }
  for (const std::string& peer : due) {
    (void)DialLocked(peer, /*force=*/true);
  }
  // 3. Peer-plane conns: retry stalled flushes and defensively re-arm
  // the read edge (EPOLL_CTL_MOD re-reports pending readiness, so a
  // missed edge cannot strand buffered frames forever).
  for (const auto& [fd, conn] : conns_) {
    if (conn->kind == ConnKind::kHttp) continue;
    if (conn->queued() > 0 && !conn->connecting) {
      flush_pending_.insert(fd);
      WakeLoop();
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
  // 4. Re-arm listeners paused by EMFILE once their pause elapses.
  for (auto it = paused_listeners_.begin(); it != paused_listeners_.end();) {
    if (steady_now >= it->second) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = it->first;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, it->first, &ev);
      it = paused_listeners_.erase(it);
    } else {
      ++it;
    }
  }
}

void EpollTransport::FirePending() {
  std::vector<PendingDelivery> deliveries;
  std::vector<std::string> peer_ups;
  std::vector<std::pair<std::string, Status>> errors;
  PeerUpCallback peer_up;
  ErrorCallback on_error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    deliveries.swap(pending_deliveries_);
    peer_ups.swap(pending_peer_ups_);
    errors.swap(pending_errors_);
    peer_up = peer_up_callback_;
    on_error = error_callback_;
  }
  if (peer_up) {
    for (const std::string& peer : peer_ups) peer_up(peer);
  }
  for (PendingDelivery& delivery : deliveries) {
    delivery.node->OnMessage(delivery.message);
  }
  if (on_error) {
    for (auto& [peer, status] : errors) on_error(peer, status);
  }
}

}  // namespace gsn::network
