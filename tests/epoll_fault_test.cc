// Syscall fault-injection tests for EpollTransport (docs/CHAOS.md):
// the FaultInjectingSocketOps seam drives the hard error paths —
// EINTR/EAGAIN storms, short writes, ECONNRESET mid-frame, refused and
// stalled connects, EMFILE on accept — and the transport must keep its
// contract: frames either arrive intact or the failure is surfaced,
// counted, and redialed with backoff.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gsn/network/epoll_transport.h"
#include "gsn/network/socket_ops.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/util/clock.h"

namespace gsn::network {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

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
  bool WaitForCount(size_t n, milliseconds timeout = milliseconds(10000)) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout,
                        [this, n] { return messages_.size() >= n; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Message> messages_;
};

/// Collects (peer, status) pairs from the transport error callback.
class ErrorSink {
 public:
  void Attach(EpollTransport* transport) {
    transport->SetErrorCallback([this](const std::string& peer,
                                       const Status& error) {
      std::lock_guard<std::mutex> lock(mu_);
      errors_.emplace_back(peer, error);
      cv_.notify_all();
    });
  }
  std::vector<std::pair<std::string, Status>> Errors() const {
    std::lock_guard<std::mutex> lock(mu_);
    return errors_;
  }
  bool WaitForPeerError(const std::string& peer,
                        milliseconds timeout = milliseconds(10000)) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this, &peer] {
      for (const auto& [p, status] : errors_) {
        if (p == peer) return true;
      }
      return false;
    });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<std::string, Status>> errors_;
};

bool WaitUntil(const std::function<bool()>& predicate,
               milliseconds timeout = milliseconds(10000)) {
  const auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return predicate();
}

// A storm of injected EINTR/EAGAIN on both read and write plus short
// writes must not lose a single frame: EINTR retries inline, EAGAIN
// waits for the (maintenance-re-armed) edge, and partial writes resume
// from the recorded offset.
TEST(EpollFaultTest, SyscallStormsLoseNoFrames) {
  FaultInjectingSocketOps::Config config;
  config.seed = 7;
  config.recv_eintr_rate = 0.2;
  config.recv_eagain_rate = 0.1;
  config.send_eintr_rate = 0.2;
  config.send_eagain_rate = 0.1;
  config.short_write_rate = 0.4;
  FaultInjectingSocketOps ops(config);

  EpollTransport::Options options_a;
  options_a.socket_ops = &ops;
  EpollTransport::Options options_b;
  options_b.socket_ops = &ops;
  EpollTransport a(std::move(options_a));
  EpollTransport b(std::move(options_b));
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.ListenPeer(0).ok());
  RecordingNode node_a;
  ASSERT_TRUE(a.RegisterNode("node-a", &node_a).ok());
  b.AddPeer("node-a", "127.0.0.1", a.peer_port());

  constexpr int kFrames = 50;
  // Multi-KB payloads so short writes actually split frames.
  const std::string filler(2048, 'q');
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(
        b.Send(0, "node-b", "node-a", "seq", std::to_string(i) + filler).ok());
  }
  ASSERT_TRUE(node_a.WaitForCount(kFrames));

  // Every frame arrived exactly once, in order, intact.
  const std::vector<Message> messages = node_a.Messages();
  ASSERT_EQ(messages.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(messages[i].payload, std::to_string(i) + filler) << i;
  }
  // And the storm actually happened.
  EXPECT_GT(ops.injected_recv_faults() + ops.injected_send_faults() +
                ops.injected_short_writes(),
            0);
  a.Stop();
  b.Stop();
}

// The contiguous write buffer under the same storm: frames of mixed
// sizes, plus one larger than the whole queue bound sent on a drained
// (healthy) link, arrive byte-exact and in order, and the queued-bytes
// gauge drains to 0.
TEST(EpollFaultTest, WriteBufferStaysByteExactUnderFaults) {
  FaultInjectingSocketOps::Config config;
  config.seed = 13;
  config.recv_eintr_rate = 0.2;
  config.recv_eagain_rate = 0.1;
  config.send_eintr_rate = 0.2;
  config.send_eagain_rate = 0.1;
  config.short_write_rate = 0.4;
  FaultInjectingSocketOps ops(config);

  telemetry::MetricRegistry registry;
  EpollTransport::Options options_a;
  options_a.socket_ops = &ops;
  EpollTransport::Options options_b;
  options_b.socket_ops = &ops;
  options_b.metrics = &registry;
  options_b.max_write_queue_bytes = 256 * 1024;
  EpollTransport a(std::move(options_a));
  EpollTransport b(std::move(options_b));
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.ListenPeer(0).ok());
  RecordingNode node_a;
  ASSERT_TRUE(a.RegisterNode("node-a", &node_a).ok());
  b.AddPeer("node-a", "127.0.0.1", a.peer_port());
  const auto queued =
      registry.GetGauge("gsn_transport_queued_bytes", {{"role", "peer"}});

  // Every byte value appears, NULs included, at a per-frame offset.
  auto payload = [](int frame, size_t size) {
    std::string bytes(size, '\0');
    for (size_t j = 0; j < size; ++j) {
      bytes[j] = static_cast<char>((frame * 31 + j) & 0xff);
    }
    return bytes;
  };
  // Frames before kOversized go one at a time, so the storm gets at
  // least that many sends however the loop batches; the rest go as one
  // burst, whose 60 frames of at most 4 KiB stay below the bound even
  // if none left.
  constexpr int kFrames = 121;
  constexpr int kOversized = 60;
  std::vector<std::string> expected;
  for (int i = 0; i < kFrames; ++i) {
    const size_t size =
        i == kOversized ? 300 * 1024 : static_cast<size_t>(i * 1237 % 4096 + 1);
    expected.push_back(payload(i, size));
    ASSERT_TRUE(b.Send(0, "node-b", "node-a", "seq", expected.back()).ok())
        << i;
    if (i < kOversized) {
      ASSERT_TRUE(node_a.WaitForCount(i + 1)) << i;
    } else if (i == kOversized) {
      // Let the link drain before more frames queue behind it.
      ASSERT_TRUE(WaitUntil([&] { return queued->Value() == 0; }));
    }
  }
  ASSERT_TRUE(node_a.WaitForCount(kFrames));

  const std::vector<Message> messages = node_a.Messages();
  ASSERT_EQ(messages.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_TRUE(messages[i].payload == expected[i]) << "frame " << i;
  }
  EXPECT_TRUE(WaitUntil([&] { return queued->Value() == 0; }));
  EXPECT_EQ(b.overflows_total(), 0);
  EXPECT_GT(ops.injected_short_writes(), 0);
  EXPECT_GT(ops.injected_send_faults(), 0);
  a.Stop();
  b.Stop();
}

// The occupancy rule: one item may exceed the bound, but a send that
// finds the queue already at it drops the queue, closes the link with
// ResourceExhausted and counts an overflow.
TEST(EpollFaultTest, FullWriteBufferClosesWithResourceExhausted) {
  FaultInjectingSocketOps::Config config;
  config.send_eagain_rate = 1.0;  // the link never drains
  FaultInjectingSocketOps ops(config);

  EpollTransport a;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(a.ListenPeer(0).ok());
  RecordingNode node_a;
  ASSERT_TRUE(a.RegisterNode("node-a", &node_a).ok());
  telemetry::MetricRegistry registry;
  EpollTransport::Options options;
  options.socket_ops = &ops;
  options.metrics = &registry;
  options.max_write_queue_bytes = 64 * 1024;
  options.auto_redial = false;
  EpollTransport b(std::move(options));
  ASSERT_TRUE(b.Start().ok());
  ErrorSink errors;
  errors.Attach(&b);
  b.AddPeer("node-a", "127.0.0.1", a.peer_port());
  const auto queued =
      registry.GetGauge("gsn_transport_queued_bytes", {{"role", "peer"}});

  ASSERT_TRUE(
      b.Send(0, "node-b", "node-a", "big", std::string(80 * 1024, 'x')).ok());
  EXPECT_GT(queued->Value(), 80 * 1024);
  const Status overflow = b.Send(0, "node-b", "node-a", "next", "y");
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted)
      << overflow.ToString();
  EXPECT_EQ(b.overflows_total(), 1);
  EXPECT_EQ(queued->Value(), 0);

  ASSERT_TRUE(errors.WaitForPeerError("node-a"));
  EXPECT_EQ(errors.Errors()[0].second.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(WaitUntil([&] { return b.connection_count() == 0; }));
  EXPECT_TRUE(node_a.Messages().empty());
  a.Stop();
  b.Stop();
}

// An injected ECONNRESET mid-stream kills the connection; the error
// surfaces on the callback with the peer id, the automatic redial
// brings the link back, and later frames still flow.
TEST(EpollFaultTest, MidStreamResetSurfacesAndRedials) {
  FaultInjectingSocketOps::Config config;
  config.seed = 3;
  config.send_reset_rate = 0.05;
  FaultInjectingSocketOps ops(config);

  EpollTransport a;
  EpollTransport::Options options_b;
  options_b.socket_ops = &ops;
  options_b.redial_policy.initial_backoff_micros = 10 * kMicrosPerMilli;
  options_b.redial_policy.max_backoff_micros = 50 * kMicrosPerMilli;
  EpollTransport b(std::move(options_b));
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.ListenPeer(0).ok());
  RecordingNode node_a;
  ASSERT_TRUE(a.RegisterNode("node-a", &node_a).ok());
  b.AddPeer("node-a", "127.0.0.1", a.peer_port());
  ErrorSink errors;
  errors.Attach(&b);

  // Keep sending until a reset has been injected and survived: the
  // frames riding the broken connection are lost (the resilience layer
  // above owns replay), but the link must come back for later sends.
  int sent = 0;
  ASSERT_TRUE(WaitUntil([&] {
    ++sent;
    (void)b.Send(0, "node-b", "node-a", "seq", std::to_string(sent));
    return ops.injected_send_faults() > 0 && errors.WaitForPeerError(
                                                 "node-a", milliseconds(1));
  }));
  // The error names the peer and carries the errno string.
  bool saw_reset = false;
  for (const auto& [peer, status] : errors.Errors()) {
    if (peer == "node-a" &&
        status.message().find("node-a") != std::string::npos) {
      saw_reset = true;
    }
  }
  EXPECT_TRUE(saw_reset);

  // Frames sent after the reset arrive again (redial or fresh dial).
  const size_t before = node_a.Messages().size();
  EXPECT_TRUE(WaitUntil([&] {
    (void)b.Send(0, "node-b", "node-a", "after", "back");
    return node_a.Messages().size() > before;
  }));
  a.Stop();
  b.Stop();
}

// Refused connects are counted, surfaced with peer id + errno string,
// and retried with backoff until the policy is exhausted.
TEST(EpollFaultTest, RefusedDialsBackOffAndCount) {
  FaultInjectingSocketOps::Config config;
  config.seed = 5;
  config.connect_refuse_rate = 1.0;
  FaultInjectingSocketOps ops(config);

  EpollTransport::Options options;
  options.socket_ops = &ops;
  options.redial_policy.initial_backoff_micros = 5 * kMicrosPerMilli;
  options.redial_policy.max_backoff_micros = 20 * kMicrosPerMilli;
  options.redial_policy.max_attempts = 4;
  EpollTransport t(std::move(options));
  ASSERT_TRUE(t.Start().ok());
  ErrorSink errors;
  errors.Attach(&t);
  t.AddPeer("node-x", "127.0.0.1", 9);  // never reached: every dial refused

  EXPECT_FALSE(t.Send(0, "me", "node-x", "t", "x").ok());
  EXPECT_TRUE(errors.WaitForPeerError("node-x"));
  // Automatic redial keeps failing until the policy is exhausted.
  EXPECT_TRUE(WaitUntil([&] { return t.dial_failures_total() >= 4; }));
  const auto recorded = errors.Errors();
  ASSERT_FALSE(recorded.empty());
  EXPECT_EQ(recorded[0].first, "node-x");
  EXPECT_NE(recorded[0].second.message().find("node-x"), std::string::npos);
  EXPECT_NE(recorded[0].second.message().find("refused"), std::string::npos)
      << recorded[0].second.ToString();
  EXPECT_GT(ops.injected_connect_faults(), 0);
  t.Stop();
}

// A stalled connect (SYN into the void) never completes; the connect
// deadline must reap it, count a failure, and back off — and once the
// fault clears, the same peer dials cleanly again.
TEST(EpollFaultTest, StalledConnectHitsTheDeadline) {
  FaultInjectingSocketOps::Config config;
  config.seed = 11;
  config.connect_stall_rate = 1.0;
  FaultInjectingSocketOps ops(config);

  EpollTransport listener;
  ASSERT_TRUE(listener.Start().ok());
  ASSERT_TRUE(listener.ListenPeer(0).ok());
  RecordingNode node_a;
  ASSERT_TRUE(listener.RegisterNode("node-a", &node_a).ok());

  EpollTransport::Options options;
  options.socket_ops = &ops;
  options.connect_timeout_micros = 100 * kMicrosPerMilli;
  options.auto_redial = false;  // pin the count to the one explicit dial
  EpollTransport t(std::move(options));
  ASSERT_TRUE(t.Start().ok());
  ErrorSink errors;
  errors.Attach(&t);
  t.AddPeer("node-a", "127.0.0.1", listener.peer_port());

  ASSERT_TRUE(t.Send(0, "me", "node-a", "t", "x").ok());  // queued on the dial
  EXPECT_TRUE(errors.WaitForPeerError("node-a"));
  EXPECT_TRUE(WaitUntil([&] { return t.connect_failures_total() >= 1; }));
  bool saw_timeout = false;
  for (const auto& [peer, status] : errors.Errors()) {
    if (peer == "node-a" &&
        status.message().find("timeout") != std::string::npos) {
      saw_timeout = true;
    }
  }
  EXPECT_TRUE(saw_timeout);

  // Fault gone: the next send dials for real and the frame arrives.
  FaultInjectingSocketOps::Config clean;
  // (A fresh transport uses the real syscalls; the stalled one keeps
  // its seam. Re-dial through a clean transport proves the listener
  // side stayed healthy.)
  (void)clean;
  EpollTransport fresh;
  ASSERT_TRUE(fresh.Start().ok());
  fresh.AddPeer("node-a", "127.0.0.1", listener.peer_port());
  ASSERT_TRUE(fresh.Send(0, "me", "node-a", "t", "works").ok());
  ASSERT_TRUE(node_a.WaitForCount(1));
  fresh.Stop();
  t.Stop();
  listener.Stop();
}

// EMFILE on accept must pause the listener (no hot spin) and re-arm it
// after accept_rearm_micros: the dialing side redials and the link
// recovers without restarting either process.
TEST(EpollFaultTest, EmfileAcceptPausesThenRearms) {
  FaultInjectingSocketOps::Config config;
  config.accept_emfile_burst = 3;
  FaultInjectingSocketOps ops(config);

  EpollTransport::Options options_a;
  options_a.socket_ops = &ops;
  options_a.accept_rearm_micros = 50 * kMicrosPerMilli;
  EpollTransport a(std::move(options_a));
  EpollTransport::Options options_b;
  options_b.redial_policy.initial_backoff_micros = 20 * kMicrosPerMilli;
  options_b.redial_policy.max_backoff_micros = 100 * kMicrosPerMilli;
  options_b.redial_policy.max_attempts = 20;
  EpollTransport b(std::move(options_b));
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.ListenPeer(0).ok());
  RecordingNode node_a;
  ASSERT_TRUE(a.RegisterNode("node-a", &node_a).ok());
  b.AddPeer("node-a", "127.0.0.1", a.peer_port());

  ASSERT_TRUE(b.Send(0, "node-b", "node-a", "t", "knock").ok());
  EXPECT_TRUE(WaitUntil([&] { return a.accept_errors_total() >= 1; }));

  // The dial side saw its connection die (accept never completed) and
  // keeps redialing; once the pause expires the accept succeeds and a
  // frame finally lands. ECONNRESET from the dropped accept can race
  // the first payload, so keep offering frames.
  EXPECT_TRUE(WaitUntil([&] {
    (void)b.Send(0, "node-b", "node-a", "t", "retry");
    std::this_thread::sleep_for(milliseconds(10));
    return !node_a.Messages().empty();
  }));
  EXPECT_EQ(ops.injected_accept_faults(), 3);
  a.Stop();
  b.Stop();
}

// The reconnect counter tells operators a link bounced: force a reset
// through ResetPeer, then watch reconnects_total move when the redial
// completes.
TEST(EpollFaultTest, ForcedResetCountsAReconnect) {
  EpollTransport a;
  EpollTransport::Options options_b;
  options_b.redial_policy.initial_backoff_micros = 10 * kMicrosPerMilli;
  options_b.redial_policy.max_backoff_micros = 50 * kMicrosPerMilli;
  EpollTransport b(std::move(options_b));
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.ListenPeer(0).ok());
  RecordingNode node_a;
  ASSERT_TRUE(a.RegisterNode("node-a", &node_a).ok());
  b.AddPeer("node-a", "127.0.0.1", a.peer_port());

  ASSERT_TRUE(b.Send(0, "node-b", "node-a", "t", "hello").ok());
  ASSERT_TRUE(node_a.WaitForCount(1));

  ASSERT_TRUE(b.ResetPeer("node-a").ok());
  EXPECT_TRUE(WaitUntil([&] { return b.resets_total() >= 1; }));

  // The next sends ride the redial; the reconnect is counted once the
  // replacement connect completes after the failure-tracked close.
  EXPECT_TRUE(WaitUntil([&] {
    (void)b.Send(0, "node-b", "node-a", "t", "again");
    std::this_thread::sleep_for(milliseconds(5));
    return node_a.Messages().size() >= 2;
  }));
  // Resetting an unknown peer is a no-op, not a crash: like sending an
  // RST with no connection, there is simply nothing to tear down.
  EXPECT_TRUE(b.ResetPeer("ghost").ok());
  a.Stop();
  b.Stop();
}

}  // namespace
}  // namespace gsn::network
