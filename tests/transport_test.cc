// Tests for the real-socket EpollTransport: the framed peer plane
// (including NAT-style reply routing), the HTTP/1.1 keep-alive plane,
// backpressure, idle timeouts, and two full containers federating over
// actual TCP sockets (docs/TRANSPORT.md).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/network/epoll_transport.h"
#include "gsn/network/socket_ops.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/util/clock.h"

namespace gsn::network {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Collects delivered messages; WaitFor blocks until a predicate holds
/// (real-time transports deliver from their own thread).
class RecordingNode : public NetworkNode {
 public:
  void OnMessage(const Message& message) override {
    std::lock_guard<std::mutex> lock(mu_);
    messages_.push_back(message);
    cv_.notify_all();
  }

  std::vector<Message> Messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

  bool WaitForCount(size_t n, milliseconds timeout = milliseconds(5000)) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout,
                        [this, n] { return messages_.size() >= n; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Message> messages_;
};

/// Blocking loopback client for raw HTTP-plane conformance tests.
class RawClient {
 public:
  explicit RawClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool SendAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until `marker` occurs `count` times, EOF, or timeout.
  std::string ReadUntil(const std::string& marker, int count,
                        milliseconds timeout = milliseconds(5000)) {
    std::string data;
    const auto deadline = steady_clock::now() + timeout;
    char buf[4096];
    while (steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        data.append(buf, static_cast<size_t>(n));
        int seen = 0;
        for (size_t pos = data.find(marker); pos != std::string::npos;
             pos = data.find(marker, pos + 1)) {
          ++seen;
        }
        if (seen >= count) return data;
      } else if (n == 0) {
        return data;  // EOF
      } else {
        std::this_thread::sleep_for(milliseconds(2));
      }
    }
    return data;
  }

  /// True when the server closed the connection (read returns 0/reset).
  bool WaitForClose(milliseconds timeout = milliseconds(5000)) {
    const auto deadline = steady_clock::now() + timeout;
    char buf[4096];
    while (steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return true;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
      std::this_thread::sleep_for(milliseconds(2));
    }
    return false;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

bool WaitUntil(const std::function<bool()>& predicate,
               milliseconds timeout = milliseconds(5000)) {
  const auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return predicate();
}

// ------------------------------------------------------------- peer plane

TEST(EpollTransportPeerTest, DeliversFramesBetweenProcessesLikeTransports) {
  EpollTransport a;
  EpollTransport b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.ListenPeer(0).ok());
  ASSERT_GT(a.peer_port(), 0);

  RecordingNode node_a;
  RecordingNode node_b;
  ASSERT_TRUE(a.RegisterNode("node-a", &node_a).ok());
  ASSERT_TRUE(b.RegisterNode("node-b", &node_b).ok());
  b.AddPeer("node-a", "127.0.0.1", a.peer_port());

  ASSERT_TRUE(b.Send(0, "node-b", "node-a", "greet", "hello").ok());
  ASSERT_TRUE(node_a.WaitForCount(1));
  EXPECT_EQ(node_a.Messages()[0].from, "node-b");
  EXPECT_EQ(node_a.Messages()[0].topic, "greet");
  EXPECT_EQ(node_a.Messages()[0].payload, "hello");

  // Reply routing: `b` never listens — `a` can only answer over the
  // live inbound connection (the NAT-gateway topology).
  ASSERT_TRUE(a.Send(0, "node-a", "node-b", "reply", "hi back").ok());
  ASSERT_TRUE(node_b.WaitForCount(1));
  EXPECT_EQ(node_b.Messages()[0].from, "node-a");
  EXPECT_EQ(node_b.Messages()[0].payload, "hi back");

  // Broadcast from b reaches a's local node (dial table route).
  ASSERT_TRUE(b.Broadcast(0, "node-b", "gossip", "to-everyone").ok());
  ASSERT_TRUE(node_a.WaitForCount(2));
  EXPECT_EQ(node_a.Messages()[1].topic, "gossip");
  EXPECT_EQ(node_a.Messages()[1].to, "node-a");  // addressed per recipient

  // Connection stats surface both ends.
  EXPECT_TRUE(WaitUntil([&] { return !a.Connections().empty(); }));
  const std::vector<ConnectionStats> stats = a.Connections();
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].kind, "peer-in");
  EXPECT_EQ(stats[0].state, "open");
  EXPECT_EQ(stats[0].peer, "node-b");
  EXPECT_GT(stats[0].frames_in, 0);

  a.Stop();
  b.Stop();
}

TEST(EpollTransportPeerTest, LocalNodesDeliverWithoutSockets) {
  EpollTransport t;
  ASSERT_TRUE(t.Start().ok());
  RecordingNode one;
  RecordingNode two;
  ASSERT_TRUE(t.RegisterNode("one", &one).ok());
  ASSERT_TRUE(t.RegisterNode("two", &two).ok());
  EXPECT_FALSE(t.RegisterNode("one", &one).ok());  // duplicate

  ASSERT_TRUE(t.Send(0, "one", "two", "ping", "x").ok());
  ASSERT_TRUE(two.WaitForCount(1));
  ASSERT_TRUE(t.Broadcast(0, "one", "news", "y").ok());
  ASSERT_TRUE(two.WaitForCount(2));
  EXPECT_TRUE(one.Messages().empty());  // no self-delivery

  EXPECT_FALSE(t.Send(0, "one", "ghost", "ping", "x").ok());  // no route
  t.Stop();
}

TEST(EpollTransportPeerTest, SendBeforeStartAndUnknownPeerFail) {
  EpollTransport t;
  EXPECT_FALSE(t.ListenPeer(0).ok());  // not started
  ASSERT_TRUE(t.Start().ok());
  EXPECT_FALSE(t.Send(0, "a", "nowhere", "x", "y").ok());
  t.Stop();
  EXPECT_FALSE(t.running());
  t.Stop();  // idempotent
}

// ------------------------------------------------------------- HTTP plane

EpollTransport::HttpHandler EchoHandler() {
  return [](const HttpRequest& request) {
    return HttpResponse::Text("echo:" + request.path);
  };
}

TEST(EpollTransportHttpTest, KeepAliveServesPipelinedRequests) {
  EpollTransport t;
  ASSERT_TRUE(t.Start().ok());
  ASSERT_TRUE(t.ListenHttp(0, EchoHandler()).ok());
  ASSERT_GT(t.http_port(), 0);

  RawClient client(t.http_port());
  ASSERT_TRUE(client.connected());
  // Two pipelined HTTP/1.1 requests on one connection.
  ASSERT_TRUE(client.SendAll(
      "GET /first HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /second HTTP/1.1\r\nHost: x\r\n\r\n"));
  const std::string both = client.ReadUntil("echo:/", 2);
  EXPECT_NE(both.find("echo:/first"), std::string::npos) << both;
  EXPECT_NE(both.find("echo:/second"), std::string::npos) << both;
  EXPECT_NE(both.find("Connection: keep-alive"), std::string::npos);

  // The connection stayed open and counted both requests.
  EXPECT_TRUE(WaitUntil([&] {
    const auto stats = t.Connections();
    return !stats.empty() && stats[0].requests_served == 2;
  }));
  EXPECT_EQ(t.http_requests_total(), 2);

  // A third request on the same connection still works.
  ASSERT_TRUE(
      client.SendAll("GET /third HTTP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_NE(client.ReadUntil("echo:/third", 1).find("echo:/third"),
            std::string::npos);
  t.Stop();
}

// 64 pipelined requests arriving in one write are consumed from a
// cursor and answered completely and in order.
TEST(EpollTransportHttpTest, SixtyFourPipelinedRequestsInOneWrite) {
  EpollTransport t;
  ASSERT_TRUE(t.Start().ok());
  ASSERT_TRUE(t.ListenHttp(0, EchoHandler()).ok());

  RawClient client(t.http_port());
  ASSERT_TRUE(client.connected());
  constexpr int kRequests = 64;
  std::vector<std::string> paths;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    paths.push_back("/r" + std::string(i < 10 ? "0" : "") + std::to_string(i));
    burst += "GET " + paths.back() + " HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  ASSERT_TRUE(client.SendAll(burst));
  const std::string responses = client.ReadUntil("echo:/r", kRequests);

  size_t last = 0;
  for (int i = 0; i < kRequests; ++i) {
    const size_t at = responses.find("echo:" + paths[i], last);
    ASSERT_NE(at, std::string::npos) << "missing or out of order: " << i;
    last = at;
  }
  size_t complete = 0;
  for (size_t at = responses.find("HTTP/1.1 200 OK"); at != std::string::npos;
       at = responses.find("HTTP/1.1 200 OK", at + 1)) {
    ++complete;
  }
  EXPECT_EQ(complete, static_cast<size_t>(kRequests));
  EXPECT_TRUE(WaitUntil([&] {
    const auto stats = t.Connections();
    return !stats.empty() && stats[0].requests_served == kRequests &&
           stats[0].queued_bytes == 0;
  }));
  t.Stop();
}

TEST(EpollTransportHttpTest, Http10ClosesAfterResponse) {
  EpollTransport t;
  ASSERT_TRUE(t.Start().ok());
  ASSERT_TRUE(t.ListenHttp(0, EchoHandler()).ok());

  RawClient client(t.http_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendAll("GET /only HTTP/1.0\r\nHost: x\r\n\r\n"));
  const std::string response = client.ReadUntil("echo:/only", 1);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_TRUE(client.WaitForClose());
  t.Stop();
}

TEST(EpollTransportHttpTest, MalformedAndOversizedRequestsAreRejected) {
  EpollTransport t;
  ASSERT_TRUE(t.Start().ok());
  ASSERT_TRUE(t.ListenHttp(0, EchoHandler()).ok());

  // An unterminated head larger than the 64 KiB cap closes the socket.
  RawClient big(t.http_port());
  ASSERT_TRUE(big.connected());
  ASSERT_TRUE(big.SendAll("GET / HTTP/1.1\r\nX: " +
                          std::string(70 * 1024, 'a')));
  EXPECT_TRUE(big.WaitForClose());

  // A bad Content-Length closes too (after a 400).
  RawClient bad(t.http_port());
  ASSERT_TRUE(bad.connected());
  ASSERT_TRUE(bad.SendAll(
      "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: pony\r\n\r\n"));
  EXPECT_TRUE(bad.WaitForClose());
  t.Stop();
}

TEST(EpollTransportHttpTest, SlowReaderIsDisconnectedByBackpressure) {
  EpollTransport::Options options;
  options.max_write_queue_bytes = 8 * 1024;
  EpollTransport t(std::move(options));
  ASSERT_TRUE(t.Start().ok());
  // Each response carries a 64 KiB body.
  ASSERT_TRUE(t.ListenHttp(0, [](const HttpRequest&) {
                 return HttpResponse::Text(std::string(64 * 1024, 'z'));
               }).ok());

  RawClient client(t.http_port());
  ASSERT_TRUE(client.connected());
  // Pipeline many requests and never read: kernel buffers fill, the
  // write queue hits its bound, and the transport cuts the connection.
  std::string burst;
  for (int i = 0; i < 64; ++i) {
    burst += "GET /fat HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  ASSERT_TRUE(client.SendAll(burst));
  EXPECT_TRUE(WaitUntil([&] { return t.overflows_total() >= 1; }));
  EXPECT_TRUE(client.WaitForClose());
  t.Stop();
}

TEST(EpollTransportHttpTest, IdleConnectionsAreSweptByTimeout) {
  EpollTransport::Options options;
  options.idle_timeout_micros = 50 * kMicrosPerMilli;
  EpollTransport t(std::move(options));
  ASSERT_TRUE(t.Start().ok());
  ASSERT_TRUE(t.ListenHttp(0, EchoHandler()).ok());

  RawClient idler(t.http_port());
  ASSERT_TRUE(idler.connected());
  EXPECT_TRUE(WaitUntil([&] { return t.connection_count() == 1; }));
  // Send nothing: the sweep must reap the connection.
  EXPECT_TRUE(WaitUntil([&] { return t.timeouts_total() >= 1; }));
  EXPECT_TRUE(idler.WaitForClose());
  EXPECT_TRUE(WaitUntil([&] { return t.connection_count() == 0; }));
  t.Stop();
}

TEST(EpollTransportHttpTest, MetricsRegisterWhenInjected) {
  telemetry::MetricRegistry registry;
  EpollTransport::Options options;
  options.metrics = &registry;
  options.metrics_role = "test";
  EpollTransport t(std::move(options));
  ASSERT_TRUE(t.Start().ok());
  ASSERT_TRUE(t.ListenHttp(0, EchoHandler()).ok());
  RawClient client(t.http_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendAll("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
  (void)client.ReadUntil("echo:/", 1);

  const std::string exposition = registry.RenderPrometheus();
  EXPECT_NE(exposition.find("gsn_transport_accepted_total{role=\"test\"} 1"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("gsn_transport_connections{role=\"test\"}"),
            std::string::npos);
  t.Stop();
}

// ------------------------------------------------------------- write path

/// SocketOps that records the fds it hands out, counts Send calls, and
/// can park the loop thread inside one Accept4 — where the transport
/// holds no lock — so a test can queue frames before any flush runs.
class ObservingSocketOps : public SocketOps {
 public:
  int Socket(int domain, int type, int protocol) override {
    const int fd = SocketOps::Socket(domain, type, protocol);
    Record(fd);
    return fd;
  }
  int Accept4(int fd, sockaddr* addr, socklen_t* len, int flags) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (park_next_accept_) {
        park_next_accept_ = false;
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return !parked_; });
      }
    }
    const int accepted = SocketOps::Accept4(fd, addr, len, flags);
    Record(accepted);
    return accepted;
  }
  ssize_t Send(int fd, const void* buf, size_t len, int flags) override {
    sends_.fetch_add(1);
    return SocketOps::Send(fd, buf, len, flags);
  }

  void ParkNextAccept() {
    std::lock_guard<std::mutex> lock(mu_);
    park_next_accept_ = true;
  }
  bool WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, milliseconds(5000), [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    park_next_accept_ = false;
    parked_ = false;
    cv_.notify_all();
  }
  std::vector<int> fds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fds_;
  }
  int64_t sends() const { return sends_.load(); }

 private:
  void Record(int fd) {
    if (fd < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    fds_.push_back(fd);
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool park_next_accept_ = false;
  bool parked_ = false;
  std::vector<int> fds_;
  std::atomic<int64_t> sends_{0};
};

uint16_t LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

int NoDelay(int fd) {
  int value = -1;
  socklen_t len = sizeof(value);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) {
    return -1;
  }
  return value;
}

// Guards against the ~40 ms Nagle/delayed-ACK floor coming back: every
// socket the transport opens has TCP_NODELAY set.
TEST(EpollTransportWritePathTest, NoDelayOnDialedAcceptedAndHttpSockets) {
  ObservingSocketOps ops_a;
  ObservingSocketOps ops_b;
  EpollTransport::Options options_a;
  options_a.socket_ops = &ops_a;
  EpollTransport::Options options_b;
  options_b.socket_ops = &ops_b;
  EpollTransport a(std::move(options_a));
  EpollTransport b(std::move(options_b));
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.ListenPeer(0).ok());
  ASSERT_TRUE(a.ListenHttp(0, EchoHandler()).ok());
  RecordingNode node_a;
  ASSERT_TRUE(a.RegisterNode("node-a", &node_a).ok());
  b.AddPeer("node-a", "127.0.0.1", a.peer_port());

  ASSERT_TRUE(b.Send(0, "node-b", "node-a", "t", "x").ok());
  ASSERT_TRUE(node_a.WaitForCount(1));
  RawClient client(a.http_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendAll("GET /nodelay HTTP/1.1\r\nHost: x\r\n\r\n"));
  ASSERT_NE(client.ReadUntil("echo:/nodelay", 1).find("echo:/nodelay"),
            std::string::npos);

  // `b` opened exactly one socket: the dialed peer link.
  const std::vector<int> dialed = ops_b.fds();
  ASSERT_EQ(dialed.size(), 1u);
  EXPECT_EQ(NoDelay(dialed[0]), 1) << "dialed peer link";
  // `a` accepted one peer link and one HTTP connection.
  int peer_in = 0;
  int http = 0;
  for (const int fd : ops_a.fds()) {
    if (LocalPort(fd) == a.peer_port()) {
      ++peer_in;
      EXPECT_EQ(NoDelay(fd), 1) << "accepted peer link";
    } else if (LocalPort(fd) == a.http_port()) {
      ++http;
      EXPECT_EQ(NoDelay(fd), 1) << "accepted HTTP connection";
    }
  }
  EXPECT_EQ(peer_in, 1);
  EXPECT_EQ(http, 1);
  a.Stop();
  b.Stop();
}

// Frames queued before one flush leave in fewer sends than frames. The
// loop is parked in Accept4 while the frames queue, so no flush can run
// in between — no sleeps, no timing.
TEST(EpollTransportWritePathTest, FramesQueuedBeforeAFlushShareSends) {
  EpollTransport a;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(a.ListenPeer(0).ok());
  RecordingNode node_a;
  ASSERT_TRUE(a.RegisterNode("node-a", &node_a).ok());
  ObservingSocketOps ops_b;
  EpollTransport::Options options_b;
  options_b.socket_ops = &ops_b;
  EpollTransport b(std::move(options_b));
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(b.ListenPeer(0).ok());
  b.AddPeer("node-a", "127.0.0.1", a.peer_port());
  // Establish the link first, so the flush below is a plain one.
  ASSERT_TRUE(b.Send(0, "node-b", "node-a", "seq", "warm-up").ok());
  ASSERT_TRUE(node_a.WaitForCount(1));

  ops_b.ParkNextAccept();
  RawClient knock(b.peer_port());
  ASSERT_TRUE(knock.connected());
  const bool parked = ops_b.WaitParked();
  if (!parked) ops_b.Release();
  ASSERT_TRUE(parked);
  // Non-fatal checks only until Release: the loop must not stay parked.
  constexpr int kFrames = 32;
  const int64_t before = ops_b.sends();
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_TRUE(b.Send(0, "node-b", "node-a", "seq", std::to_string(i)).ok());
  }
  EXPECT_EQ(ops_b.sends(), before);  // nothing left while parked
  ops_b.Release();

  ASSERT_TRUE(node_a.WaitForCount(1 + kFrames));
  const std::vector<Message> messages = node_a.Messages();
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(messages[1 + i].payload, std::to_string(i)) << i;
  }
  EXPECT_LT(ops_b.sends() - before, kFrames);
  a.Stop();
  b.Stop();
}

// ---------------------------------------- containers over real sockets

// Generator producer: emits a dense `seq` so the consumer can assert
// exactly-once admission with count(distinct seq).
constexpr char kProducerXml[] =
    "<virtual-sensor name=\"seq-producer\">"
    "<metadata><predicate key=\"type\" val=\"seqstream\"/></metadata>"
    "<output-structure>"
    "  <field name=\"seq\" type=\"integer\"/>"
    "  <field name=\"value\" type=\"double\"/>"
    "</output-structure>"
    "<input-stream name=\"in\">"
    "  <stream-source alias=\"src\" storage-size=\"1\">"
    "    <address wrapper=\"generator\">"
    "      <predicate key=\"interval-ms\" val=\"100\"/>"
    "      <predicate key=\"payload-bytes\" val=\"0\"/>"
    "    </address>"
    "    <query>select seq, value from wrapper</query>"
    "  </stream-source>"
    "  <query>select * from src</query>"
    "</input-stream>"
    "</virtual-sensor>";

constexpr char kConsumerXml[] =
    "<virtual-sensor name=\"mirror\">"
    "<output-structure>"
    "  <field name=\"seq\" type=\"integer\"/>"
    "  <field name=\"value\" type=\"double\"/>"
    "</output-structure>"
    "<input-stream name=\"in\">"
    "  <stream-source alias=\"src\" storage-size=\"1\">"
    "    <address wrapper=\"remote\">"
    "      <predicate key=\"type\" val=\"seqstream\"/>"
    "    </address>"
    "    <query>select * from wrapper</query>"
    "  </stream-source>"
    "  <query>select * from src</query>"
    "</input-stream>"
    "</virtual-sensor>";

// Two containers, two transports, one TCP connection between them: the
// full federation protocol (directory gossip, subscribe/ack, stream
// with dense sequence numbers) over real sockets instead of the
// simulator. Virtual clocks still pace the protocol timers; socket
// delivery is immediate.
TEST(EpollFederationTest, ContainersFederateOverRealSockets) {
  EpollTransport net_a;
  EpollTransport net_b;
  ASSERT_TRUE(net_a.Start().ok());
  ASSERT_TRUE(net_b.Start().ok());
  ASSERT_TRUE(net_a.ListenPeer(0).ok());
  ASSERT_TRUE(net_b.ListenPeer(0).ok());
  net_a.AddPeer("node-b", "127.0.0.1", net_b.peer_port());
  net_b.AddPeer("node-a", "127.0.0.1", net_a.peer_port());

  auto clock_a = std::make_shared<VirtualClock>();
  auto clock_b = std::make_shared<VirtualClock>();
  container::Container::Options options_a;
  options_a.node_id = "node-a";
  options_a.clock = clock_a;
  options_a.network = &net_a;
  container::Container a(std::move(options_a));
  container::Container::Options options_b;
  options_b.node_id = "node-b";
  options_b.clock = clock_b;
  options_b.network = &net_b;
  container::Container b(std::move(options_b));

  ASSERT_TRUE(a.Deploy(kProducerXml).ok());

  // The deploy broadcast crossed a real socket: node-b discovers the
  // sensor by predicates alone.
  ASSERT_TRUE(WaitUntil([&] {
    return !b.Discover({{"type", "seqstream"}}).empty();
  }));
  ASSERT_TRUE(b.Deploy(kConsumerXml).ok());

  // Drive both containers; tuples must flow a -> b across TCP.
  int64_t mirrored = 0;
  for (int i = 0; i < 200 && mirrored < 5; ++i) {
    clock_a->Advance(100 * kMicrosPerMilli);
    clock_b->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(a.Tick().ok());
    ASSERT_TRUE(b.Tick().ok());
    std::this_thread::sleep_for(milliseconds(2));
    auto result = b.Query("select count(*) from mirror");
    if (result.ok()) mirrored = result->rows()[0][0].int_value();
  }
  EXPECT_GE(mirrored, 5) << "tuples did not flow across real sockets";

  // Exactly-once admission: the generator's dense seq survives the
  // socket hop with no duplicates.
  auto distinct =
      b.Query("select count(*), count(distinct seq) from mirror");
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->rows()[0][0].int_value(),
            distinct->rows()[0][1].int_value());

  // The transport surfaces the peer link.
  EXPECT_EQ(net_a.transport_name(), "epoll");
  EXPECT_TRUE(WaitUntil([&] { return net_a.frames_delivered_total() > 0; }));

  ASSERT_TRUE(a.Shutdown().ok());
  ASSERT_TRUE(b.Shutdown().ok());
  net_a.Stop();
  net_b.Stop();
}

}  // namespace
}  // namespace gsn::network
