// Loopback TCP transport: real sockets, framing, dial-on-send and flow
// control.  Labeled "transport" so the TSan CI lane runs the whole suite
// under the race detector — the io thread, worker strands and external
// senders all touch the same TcpNet.
//
// The transport's delivery model is UDP-like by design (sends may be lost
// while a connection dials or a queue is capped), so round-trip tests
// retry sends until the reply lands, exactly like the protocol actors do.

#include "transport/tcp_net.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace p2pcash::transport {
namespace {

using namespace std::chrono_literals;
using simnet::Message;

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout = 10'000ms) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

Message make_msg(NodeId from, NodeId to, std::string type,
                 std::vector<std::uint8_t> payload) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = std::move(type);
  msg.payload = std::move(payload);
  return msg;
}

/// Records every delivered message (handlers run on this node's strand;
/// the mutex only bridges to the test thread's assertions).
class Recorder : public simnet::Node {
 public:
  void on_message(const Message& msg) override {
    std::lock_guard<std::mutex> lock(mu_);
    messages_.push_back(msg);
  }
  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_.size();
  }
  std::vector<Message> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Message> messages_;
};

/// Replies to every message with a "pong" carrying the same payload.
class Echo : public simnet::Node {
 public:
  void bind(Transport& tx) { tx_ = &tx; }
  void on_message(const Message& msg) override {
    tx_->send(make_msg(id(), msg.from, "pong", msg.payload));
  }

 private:
  Transport* tx_ = nullptr;
};

/// Stalls its strand on every delivery, backing the mailbox up into the
/// inbound flow-control path.
class SlowReader : public simnet::Node {
 public:
  void on_message(const Message&) override {
    std::this_thread::sleep_for(200us);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::size_t> count_{0};
};

/// Two strand workers, so deliveries to different endpoints overlap.
TcpNet::Options fast_options() {
  TcpNet::Options options;
  options.worker_threads = 2;
  return options;
}

TEST(Envelope, RoundTripAndTruncationSafety) {
  Message msg = make_msg(3, 7, "payment/request", {0x00, 0x01, 0xfe, 0xff});
  auto bytes = encode_envelope(msg);
  Message back = decode_envelope(bytes);
  EXPECT_EQ(back.from, msg.from);
  EXPECT_EQ(back.to, msg.to);
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.payload, msg.payload);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW((void)decode_envelope(prefix), wire::DecodeError) << cut;
  }
  // Trailing garbage is a framing violation, not silently ignored.
  auto padded = bytes;
  padded.push_back(0xaa);
  EXPECT_THROW((void)decode_envelope(padded), wire::DecodeError);
}

TEST(TcpTransport, EndpointsGetDistinctLoopbackPorts) {
  TcpNet net(fast_options());
  Recorder a, b, c;
  NodeId ia = net.attach(a), ib = net.attach(b), ic = net.attach(c);
  EXPECT_EQ(a.id(), ia);
  EXPECT_NE(net.port(ia), 0);
  EXPECT_NE(net.port(ib), 0);
  EXPECT_NE(net.port(ic), 0);
  EXPECT_NE(net.port(ia), net.port(ib));
  net.start();
  Recorder late;
  EXPECT_THROW(net.attach(late), std::logic_error);
  net.stop();
}

TEST(TcpTransport, EchoRoundTrip) {
  TcpNet net(fast_options());
  Echo echo;
  Recorder client;
  NodeId echo_id = net.attach(echo);
  NodeId client_id = net.attach(client);
  echo.bind(net);
  net.start();

  const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
  ASSERT_TRUE(wait_until([&] {
    if (client.count() > 0) return true;
    net.send(make_msg(client_id, echo_id, "ping", payload));
    return false;
  })) << "no pong within the deadline";
  auto msgs = client.messages();
  ASSERT_FALSE(msgs.empty());
  EXPECT_EQ(msgs[0].type, "pong");
  EXPECT_EQ(msgs[0].payload, payload);
  EXPECT_EQ(msgs[0].from, echo_id);
  EXPECT_EQ(msgs[0].to, client_id);
  net.stop();

  auto stats = net.stats();
  EXPECT_GT(stats.connects, 0u);
  EXPECT_GT(stats.messages_received, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
}

TEST(TcpTransport, TimersAndPostsRunOnTheEndpointStrand) {
  TcpNet net(fast_options());
  Recorder node;
  NodeId id = net.attach(node);
  net.start();

  // Strand contract: post()ed work and timer callbacks for one endpoint
  // never run concurrently with each other or with deliveries.  The
  // unguarded counter below is the assertion — TSan fails the lane if two
  // strand tasks ever overlap.
  struct State {
    int unguarded = 0;
    std::atomic<int> done{0};
  };
  auto state = std::make_shared<State>();
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    net.post(id, [state] {
      ++state->unguarded;
      state->done.fetch_add(1, std::memory_order_release);
    });
  }
  net.schedule_on(id, 5, [state] {
    ++state->unguarded;
    state->done.fetch_add(1, std::memory_order_release);
  });
  ASSERT_TRUE(wait_until(
      [&] { return state->done.load(std::memory_order_acquire) == kTasks + 1; }));
  EXPECT_EQ(state->unguarded, kTasks + 1);
  EXPECT_GT(net.stats().timers_fired, 0u);
  net.stop();
}

TEST(TcpTransport, ConcurrentSendersDeliverInPerSenderOrder) {
  auto options = fast_options();
  options.worker_threads = 4;
  TcpNet net(options);
  Recorder sink;
  NodeId sink_id = net.attach(sink);
  constexpr std::size_t kSenders = 4;
  constexpr std::uint32_t kPerSender = 250;
  std::vector<std::unique_ptr<Recorder>> senders;
  std::vector<NodeId> sender_ids;
  for (std::size_t i = 0; i < kSenders; ++i) {
    senders.push_back(std::make_unique<Recorder>());
    sender_ids.push_back(net.attach(*senders.back()));
  }
  net.start();

  // Hammer one sink from many external threads at once: the thread-safety
  // claim of send() is exactly this usage.
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      for (std::uint32_t seq = 0; seq < kPerSender; ++seq) {
        std::vector<std::uint8_t> payload = {
            static_cast<std::uint8_t>(seq >> 24),
            static_cast<std::uint8_t>(seq >> 16),
            static_cast<std::uint8_t>(seq >> 8),
            static_cast<std::uint8_t>(seq)};
        net.send(make_msg(sender_ids[s], sink_id, "seq", payload));
      }
    });
  }
  for (auto& t : threads) t.join();

  // Loopback with live listeners and default queue caps loses nothing.
  ASSERT_TRUE(wait_until(
      [&] { return sink.count() == kSenders * kPerSender; }))
      << "delivered " << sink.count() << "/" << kSenders * kPerSender;
  // One TCP stream per (from,to) plus one strand per endpoint ⇒ each
  // sender's messages arrive in the order it sent them.
  std::map<NodeId, std::uint32_t> next_seq;
  for (const auto& msg : sink.messages()) {
    ASSERT_EQ(msg.payload.size(), 4u);
    std::uint32_t seq = (std::uint32_t{msg.payload[0]} << 24) |
                        (std::uint32_t{msg.payload[1]} << 16) |
                        (std::uint32_t{msg.payload[2]} << 8) |
                        std::uint32_t{msg.payload[3]};
    EXPECT_EQ(seq, next_seq[msg.from]) << "sender " << msg.from;
    next_seq[msg.from] = seq + 1;
  }
  net.stop();
}

TEST(TcpTransport, ReconnectAfterPeerRestart) {
  TcpNet net(fast_options());
  Echo echo;
  Recorder client;
  NodeId echo_id = net.attach(echo);
  NodeId client_id = net.attach(client);
  echo.bind(net);
  net.start();

  ASSERT_TRUE(wait_until([&] {
    if (client.count() > 0) return true;
    net.send(make_msg(client_id, echo_id, "ping", {1}));
    return false;
  }));
  const std::uint16_t port_before = net.port(echo_id);

  net.set_down(echo_id, true);
  // Sends into the outage are dropped with their failed dial, never fatal.
  for (int i = 0; i < 20; ++i) {
    net.send(make_msg(client_id, echo_id, "ping", {2}));
    std::this_thread::sleep_for(5ms);
  }
  const std::size_t before_restart = client.count();

  net.set_down(echo_id, false);
  EXPECT_EQ(net.port(echo_id), port_before) << "port must survive restart";
  ASSERT_TRUE(wait_until([&] {
    if (client.count() > before_restart) return true;
    net.send(make_msg(client_id, echo_id, "ping", {3}));
    return false;
  })) << "no pong after peer restart";

  auto stats = net.stats();
  EXPECT_GT(stats.disconnects, 0u);
  EXPECT_GE(stats.connects, 2u);  // original + at least one reconnect
  net.stop();
}

// The transport never retries underneath the actors: a frame sent into an
// outage is dropped with its failed dial, and the first send after the
// peer is back dials at once (no transport backoff or breaker hides it).
TEST(TcpTransport, PeerBackFromAnOutageIsDialedOnTheNextSend) {
  TcpNet net(TcpNet::Options{});
  Recorder peer;
  Recorder sender;
  NodeId peer_id = net.attach(peer);
  NodeId sender_id = net.attach(sender);
  net.start();

  net.send(make_msg(sender_id, peer_id, "hello", {1}));
  ASSERT_TRUE(wait_until([&] { return peer.count() == 1; }));

  net.set_down(peer_id, true);
  const std::vector<std::uint8_t> outage = {0xde, 0xad, 0xbe, 0xef};
  net.send(make_msg(sender_id, peer_id, "outage", outage));
  std::this_thread::sleep_for(1500ms);
  EXPECT_EQ(net.stats().dropped_on_disconnect, 1u);

  net.set_down(peer_id, false);
  const std::vector<std::uint8_t> back = {0xb4, 0xc4};
  net.send(make_msg(sender_id, peer_id, "back", back));
  ASSERT_TRUE(wait_until(
      [&] {
        for (const auto& msg : peer.messages())
          if (msg.payload == back) return true;
        return false;
      },
      2'000ms))
      << "the first send after the outage was not delivered within 2 s";
  for (const auto& msg : peer.messages())
    EXPECT_NE(msg.payload, outage) << "the outage frame was held, not dropped";
  EXPECT_EQ(net.stats().timers_fired, 0u);
  net.stop();
}

TEST(TcpTransport, BackpressureBoundsMemoryAndRecovers) {
  auto options = fast_options();
  options.peer_queue_limit_bytes = 64 * 1024;  // ~63 queued frames
  options.mailbox_high_watermark = 4;          // pause reads almost at once
  options.mailbox_low_watermark = 1;
  TcpNet net(options);
  SlowReader slow;
  Recorder sender_node;
  NodeId slow_id = net.attach(slow);
  NodeId sender_id = net.attach(sender_node);
  net.start();

  // Blast far more bytes than the reader (stalling strand, reads paused by
  // the watermark) and the kernel socket buffers can absorb: the outbound
  // queue cap must engage and drop instead of growing without bound.
  const std::vector<std::uint8_t> payload(1024, 0xbb);
  constexpr int kBlast = 20'000;  // ~20 MB offered against a 64 KB cap
  for (int i = 0; i < kBlast; ++i)
    net.send(make_msg(sender_id, slow_id, "blast", payload));

  auto stats = net.stats();
  EXPECT_GT(stats.backpressure_drops, 0u);
  EXPECT_LT(stats.messages_sent, static_cast<std::uint64_t>(kBlast));

  // Inbound flow control engaged too: a socket read bursts dozens of
  // frames into the reader's mailbox, crossing the high watermark, and the
  // io thread stops reading its sockets.
  ASSERT_TRUE(wait_until([&] { return net.stats().reads_paused > 0; }));

  // Recovery: every message that was *accepted* (not dropped at the cap)
  // drains through pause/resume cycles to the reader — the flow-controlled
  // state is transient and lossless past the cap, not terminal.
  ASSERT_TRUE(wait_until(
      [&] { return slow.count() == net.stats().messages_sent; }, 60'000ms))
      << "delivered " << slow.count() << " of "
      << net.stats().messages_sent << " accepted messages";
  // And a fresh message still gets through.
  net.send(make_msg(sender_id, slow_id, "probe", {1}));
  ASSERT_TRUE(wait_until(
      [&] { return slow.count() == net.stats().messages_sent; }));
  net.stop();
}

TEST(TcpTransport, OversizedSendIsRefusedLocally) {
  auto options = fast_options();
  options.max_frame_bytes = 1024;
  TcpNet net(options);
  Recorder a, b;
  NodeId ia = net.attach(a);
  NodeId ib = net.attach(b);
  net.start();
  net.send(make_msg(ia, ib, "huge", std::vector<std::uint8_t>(4096, 1)));
  auto stats = net.stats();
  EXPECT_EQ(stats.messages_sent, 0u);
  EXPECT_GT(stats.backpressure_drops, 0u);
  // A legal message afterwards still flows.
  ASSERT_TRUE(wait_until([&] {
    if (b.count() > 0) return true;
    net.send(make_msg(ia, ib, "small", {1}));
    return false;
  }));
  net.stop();
}

TEST(TcpTransport, StopIsIdempotentAndSendsAfterStopAreDropped) {
  TcpNet net(fast_options());
  Recorder a, b;
  NodeId ia = net.attach(a);
  NodeId ib = net.attach(b);
  net.start();
  net.stop();
  net.stop();
  net.send(make_msg(ia, ib, "late", {1}));  // must not crash or deliver
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(b.count(), 0u);
}

// Regression: stop() while one strand holds far more than one drain batch
// (kStrandBatch = 64) of posted work.  The strand resubmits itself after
// each batch; stop() must let it finish on a live pool instead of tearing
// the pool down underneath it (which used to crash the process).
TEST(TcpTransport, StopDrainsAStrandLongerThanOneBatch) {
  TcpNet net(fast_options());
  Recorder node;
  NodeId id = net.attach(node);
  net.start();
  auto done = std::make_shared<std::atomic<int>>(0);
  constexpr int kTasks = 1000;
  for (int i = 0; i < kTasks; ++i) {
    net.post(id, [done] {
      std::this_thread::sleep_for(50us);
      done->fetch_add(1, std::memory_order_relaxed);
    });
  }
  net.stop();
  EXPECT_EQ(done->load(std::memory_order_relaxed), kTasks);
  // post() after stop queues; the next start() runs it.
  net.post(id, [done] { done->fetch_add(1, std::memory_order_relaxed); });
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(done->load(std::memory_order_relaxed), kTasks);
  net.start();
  ASSERT_TRUE(wait_until(
      [&] { return done->load(std::memory_order_relaxed) == kTasks + 1; }));
  net.stop();
}

}  // namespace
}  // namespace p2pcash::transport
