// The same actor-level payment scenarios over BOTH transports: SimWorld's
// deterministic simnet shim and NodeRuntime's real loopback TCP sockets.
// Passing both proves the Transport seam is behavior-preserving — the
// protocol logic in src/actors neither knows nor cares whether a message
// crossed a simulated link or a kernel socket.  The TCP half runs under
// TSan in CI (label "transport").

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "actors/runtime.h"
#include "actors/world.h"
#include "overlay/chord.h"

namespace p2pcash::actors {
namespace {

constexpr std::size_t kMerchants = 6;
constexpr simnet::SimTime kPayTimeoutMs = 8'000;

/// One payment deployment, abstracted over the transport underneath.
/// add_client() is only legal before start() (the TCP runtime fixes its
/// endpoint set when the io loop spawns; the sim world just doesn't care).
class Harness {
 public:
  virtual ~Harness() = default;
  virtual ClientActor& add_client() = 0;
  virtual void start() {}
  virtual std::vector<MerchantId> merchant_ids() = 0;
  virtual ecash::Outcome<ecash::WalletCoin> withdraw(ClientActor& client,
                                                     ecash::Cents denom) = 0;
  virtual ClientActor::PayResult pay(ClientActor& client,
                                     const ecash::WalletCoin& coin,
                                     const MerchantId& merchant) = 0;
  /// Two clients spending at the same instant (the double-spend race).
  virtual std::pair<ClientActor::PayResult, ClientActor::PayResult>
  pay_racing(ClientActor& c1, ClientActor& c2, const ecash::WalletCoin& coin,
             const MerchantId& m1, const MerchantId& m2) = 0;
  virtual void set_merchant_down(const MerchantId& id, bool down) = 0;
  virtual std::uint64_t services_delivered(const MerchantId& id) = 0;
  virtual const group::SchnorrGroup& grp() const = 0;
};

class SimHarness : public Harness {
 public:
  SimHarness()
      : grp_(group::SchnorrGroup::test_256()), world_(grp_, options()) {}

  static SimWorld::Options options() {
    SimWorld::Options opt;
    opt.merchants = kMerchants;
    opt.seed = 77;
    opt.cost = simnet::free_cost();
    opt.latency_lo = 25;
    opt.latency_hi = 50;
    opt.retry.attempt_timeout_ms = 500;
    opt.retry.max_attempts = 2;
    opt.breaker.open_ms = 500;
    return opt;
  }

  ClientActor& add_client() override { return world_.add_client(); }
  std::vector<MerchantId> merchant_ids() override {
    return world_.merchant_ids();
  }
  ecash::Outcome<ecash::WalletCoin> withdraw(ClientActor& client,
                                             ecash::Cents denom) override {
    std::optional<ecash::Outcome<ecash::WalletCoin>> result;
    client.withdraw(denom, [&](ecash::Outcome<ecash::WalletCoin> c) {
      result = std::move(c);
    });
    world_.sim().run();
    return std::move(*result);
  }
  ClientActor::PayResult pay(ClientActor& client,
                             const ecash::WalletCoin& coin,
                             const MerchantId& merchant) override {
    std::optional<ClientActor::PayResult> result;
    client.pay(coin, merchant,
               [&](ClientActor::PayResult r) { result = std::move(r); },
               kPayTimeoutMs);
    world_.sim().run();
    return std::move(*result);
  }
  std::pair<ClientActor::PayResult, ClientActor::PayResult> pay_racing(
      ClientActor& c1, ClientActor& c2, const ecash::WalletCoin& coin,
      const MerchantId& m1, const MerchantId& m2) override {
    std::optional<ClientActor::PayResult> r1, r2;
    c1.pay(coin, m1, [&](ClientActor::PayResult r) { r1 = std::move(r); },
           kPayTimeoutMs);
    c2.pay(coin, m2, [&](ClientActor::PayResult r) { r2 = std::move(r); },
           kPayTimeoutMs);
    world_.sim().run();
    return {std::move(*r1), std::move(*r2)};
  }
  void set_merchant_down(const MerchantId& id, bool down) override {
    world_.set_merchant_down(id, down);
  }
  std::uint64_t services_delivered(const MerchantId& id) override {
    return world_.merchant(id).services_delivered();
  }
  const group::SchnorrGroup& grp() const override { return grp_; }

 private:
  const group::SchnorrGroup& grp_;
  SimWorld world_;
};

class TcpHarness : public Harness {
 public:
  TcpHarness()
      : grp_(group::SchnorrGroup::test_256()), runtime_(grp_, options()) {}

  static NodeRuntime::Options options() {
    NodeRuntime::Options opt;
    opt.merchants = kMerchants;
    opt.worker_threads = 4;
    opt.seed = 77;
    opt.retry.attempt_timeout_ms = 500;
    opt.retry.max_attempts = 2;
    opt.breaker.open_ms = 500;
    // CI sets P2PCASH_FLIGHT_ARTIFACT so a crash in a transport test dumps
    // the breadcrumb ring to an uploadable file.  Tests sit outside the
    // det_lint scope, so reading the environment HERE and passing it down
    // as an explicit option keeps the runtime itself deterministic.
    if (const char* artifact = std::getenv("P2PCASH_FLIGHT_ARTIFACT"))
      opt.flight_artifact = artifact;
    return opt;
  }

  ClientActor& add_client() override { return runtime_.add_client(); }
  void start() override { runtime_.start(); }
  std::vector<MerchantId> merchant_ids() override {
    return runtime_.merchant_ids();
  }
  ecash::Outcome<ecash::WalletCoin> withdraw(ClientActor& client,
                                             ecash::Cents denom) override {
    return runtime_.withdraw(client, denom);
  }
  ClientActor::PayResult pay(ClientActor& client,
                             const ecash::WalletCoin& coin,
                             const MerchantId& merchant) override {
    return runtime_.pay(client, coin, merchant, kPayTimeoutMs);
  }
  std::pair<ClientActor::PayResult, ClientActor::PayResult> pay_racing(
      ClientActor& c1, ClientActor& c2, const ecash::WalletCoin& coin,
      const MerchantId& m1, const MerchantId& m2) override {
    std::optional<ClientActor::PayResult> r1, r2;
    std::thread t1(
        [&] { r1 = runtime_.pay(c1, coin, m1, kPayTimeoutMs); });
    std::thread t2(
        [&] { r2 = runtime_.pay(c2, coin, m2, kPayTimeoutMs); });
    t1.join();
    t2.join();
    return {std::move(*r1), std::move(*r2)};
  }
  void set_merchant_down(const MerchantId& id, bool down) override {
    runtime_.set_merchant_down(id, down);
  }
  std::uint64_t services_delivered(const MerchantId& id) override {
    return runtime_.merchant_actor(id).merchant().services_delivered();
  }
  const group::SchnorrGroup& grp() const override { return grp_; }

 private:
  const group::SchnorrGroup& grp_;
  NodeRuntime runtime_;
};

ecash::WalletCoin must_withdraw(Harness& h, ClientActor& client) {
  auto outcome = h.withdraw(client, 100);
  EXPECT_TRUE(outcome.ok()) << outcome.refusal().detail;
  return std::move(outcome).value();
}

MerchantId non_witness_merchant(Harness& h, const ecash::WalletCoin& coin) {
  for (const auto& id : h.merchant_ids()) {
    bool is_witness = false;
    for (const auto& w : coin.coin.witnesses)
      if (w.merchant == id) is_witness = true;
    if (!is_witness) return id;
  }
  ADD_FAILURE() << "every merchant is a witness?";
  return h.merchant_ids().front();
}

// -- the scenarios, written once ------------------------------------------

void RunWithdrawScenario(Harness& h) {
  auto& client = h.add_client();
  h.start();
  auto coin = must_withdraw(h, client);
  EXPECT_EQ(coin.coin.bare.info.denomination, 100u);
  EXPECT_FALSE(coin.coin.witnesses.empty());
}

void RunPaymentScenario(Harness& h) {
  auto& client = h.add_client();
  h.start();
  auto coin = must_withdraw(h, client);
  auto target = non_witness_merchant(h, coin);
  auto result = h.pay(client, coin, target);
  EXPECT_TRUE(result.accepted) << (result.error ? *result.error : "");
  EXPECT_EQ(h.services_delivered(target), 1u);
}

void RunDoubleSpendScenario(Harness& h) {
  auto& client = h.add_client();
  h.start();
  auto coin = must_withdraw(h, client);
  auto ids = h.merchant_ids();
  auto r1 = h.pay(client, coin, ids[0]);
  auto r2 = h.pay(client, coin, ids[1]);
  EXPECT_TRUE(r1.accepted) << (r1.error ? *r1.error : "");
  EXPECT_FALSE(r2.accepted);
  ASSERT_TRUE(r2.double_spend_proof.has_value());
  EXPECT_TRUE(r2.double_spend_proof->verify(h.grp()));
}

void RunRacingDoubleSpendScenario(Harness& h) {
  // A coin is a bearer instrument: two client instances holding its secrets
  // fire at two merchants at the same instant.  The witness commitment
  // serializes the race — at most one payment may be accepted.
  auto& honest = h.add_client();
  auto& accomplice = h.add_client();
  h.start();
  auto coin = must_withdraw(h, honest);
  auto ids = h.merchant_ids();
  auto [r1, r2] = h.pay_racing(honest, accomplice, coin, ids[0], ids[1]);
  int successes = (r1.accepted ? 1 : 0) + (r2.accepted ? 1 : 0);
  EXPECT_LE(successes, 1);
}

void RunMerchantRestartScenario(Harness& h) {
  auto& client = h.add_client();
  h.start();
  auto coin = must_withdraw(h, client);
  auto target = non_witness_merchant(h, coin);
  h.set_merchant_down(target, true);
  auto failed = h.pay(client, coin, target);
  EXPECT_FALSE(failed.accepted);
  ASSERT_TRUE(failed.error.has_value());
  h.set_merchant_down(target, false);
  // A fresh coin spent at the restarted merchant: the full stack (dial,
  // framing, strands, actors) has recovered end to end.
  auto coin2 = must_withdraw(h, client);
  auto ok = h.pay(client, coin2, target);
  EXPECT_TRUE(ok.accepted) << (ok.error ? *ok.error : "");
}

// -- instantiated over both transports ------------------------------------

TEST(PaymentOverSimnet, Withdraw) { SimHarness h; RunWithdrawScenario(h); }
TEST(PaymentOverTcp, Withdraw) { TcpHarness h; RunWithdrawScenario(h); }

TEST(PaymentOverSimnet, PaymentSucceeds) {
  SimHarness h;
  RunPaymentScenario(h);
}
TEST(PaymentOverTcp, PaymentSucceeds) {
  TcpHarness h;
  RunPaymentScenario(h);
}

TEST(PaymentOverSimnet, DoubleSpendBlockedWithProof) {
  SimHarness h;
  RunDoubleSpendScenario(h);
}
TEST(PaymentOverTcp, DoubleSpendBlockedWithProof) {
  TcpHarness h;
  RunDoubleSpendScenario(h);
}

TEST(PaymentOverSimnet, RacingDoubleSpendAtMostOneWins) {
  SimHarness h;
  RunRacingDoubleSpendScenario(h);
}
TEST(PaymentOverTcp, RacingDoubleSpendAtMostOneWins) {
  TcpHarness h;
  RunRacingDoubleSpendScenario(h);
}

TEST(PaymentOverSimnet, MerchantRestartRecovery) {
  SimHarness h;
  RunMerchantRestartScenario(h);
}
TEST(PaymentOverTcp, MerchantRestartRecovery) {
  TcpHarness h;
  RunMerchantRestartScenario(h);
}

// -- TCP-only: wall-clock trace propagation over the wire ------------------
//
// The scenarios above prove behavior parity; these prove the OBSERVABILITY
// of the TCP half: a payment traced on the client stitches into one span
// tree across broker/merchant/witness nodes via the wire trace envelope,
// and stays stitched through retries, failover and reconnects.

/// Naive field extraction from one exported JSONL line (the export format
/// is pinned by obs_test's goldens, so string scanning is safe here).
std::uint64_t field_u64(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + pat.size(), nullptr, 10);
}

double field_double(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return 0;
  return std::strtod(line.c_str() + pos + pat.size(), nullptr);
}

std::string field_str(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\":\"";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return {};
  const auto end = line.find('"', pos + pat.size());
  return line.substr(pos + pat.size(), end - pos - pat.size());
}

struct ParsedSpan {
  std::uint64_t trace = 0, span = 0, parent = 0, node = 0;
  std::string name;
  double start_ms = 0, end_ms = 0;
};

std::vector<ParsedSpan> parse_spans(const std::string& jsonl) {
  std::vector<ParsedSpan> out;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    const auto nl = jsonl.find('\n', pos);
    const std::string line = jsonl.substr(pos, nl - pos);
    pos = nl == std::string::npos ? jsonl.size() : nl + 1;
    if (line.find("\"kind\":\"span\"") == std::string::npos) continue;
    ParsedSpan s;
    s.trace = field_u64(line, "trace");
    s.span = field_u64(line, "span");
    s.parent = field_u64(line, "parent");
    s.node = field_u64(line, "node");
    s.name = field_str(line, "name");
    s.start_ms = field_double(line, "start_ms");
    s.end_ms = field_double(line, "end_ms");
    out.push_back(std::move(s));
  }
  return out;
}

/// Polls the sink until a span with `name` appears (async phases like the
/// merchant's deposit land after the client's callback fires).
bool wait_for_span(NodeRuntime& rt, const std::string& name,
                   int timeout_ms = 10'000) {
  const std::string needle = "\"name\":\"" + name + "\"";
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    if (rt.trace_sink().to_jsonl().find(needle) != std::string::npos)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

TEST(PaymentOverTcp, TraceStitchesAcrossNodes) {
  auto& grp = group::SchnorrGroup::test_256();
  NodeRuntime rt(grp, TcpHarness::options());
  auto& client = rt.add_client();
  rt.start();

  auto outcome = rt.withdraw(client, 100);
  ASSERT_TRUE(outcome.ok()) << outcome.refusal().detail;
  auto coin = std::move(outcome).value();
  MerchantId target;
  for (const auto& id : rt.merchant_ids()) {
    bool is_witness = false;
    for (const auto& w : coin.coin.witnesses)
      if (w.merchant == id) is_witness = true;
    if (!is_witness) target = id;
  }
  ASSERT_FALSE(target.empty());
  auto result = rt.pay(client, coin, target, kPayTimeoutMs);
  ASSERT_TRUE(result.accepted) << (result.error ? *result.error : "");

  // Drive the deferred deposit so the trace reaches the final phase.
  rt.net().post(rt.merchant_node(target),
                [&] { rt.merchant_actor(target).flush_deposits(); });
  EXPECT_TRUE(wait_for_span(rt, "deposit"));
  rt.stop();

  const std::string jsonl = rt.trace_sink().to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"meta\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"transport\":\"tcp\""), std::string::npos);

  const auto spans = parse_spans(jsonl);
  std::map<std::uint64_t, const ParsedSpan*> by_id;
  for (const auto& s : spans) by_id[s.span] = &s;

  // Every non-root span resolves to an in-file parent in the same trace,
  // and never starts measurably before it — across ALL traces, which is
  // exactly what a cross-node stitch through the wire envelope must give.
  for (const auto& s : spans) {
    if (s.parent == 0) continue;
    const auto parent = by_id.find(s.parent);
    ASSERT_NE(parent, by_id.end())
        << "orphan span " << s.name << " (#" << s.span << ")";
    EXPECT_EQ(parent->second->trace, s.trace) << s.name;
    EXPECT_GE(s.start_ms, parent->second->start_ms - 1.0) << s.name;
  }

  // The payment trace covers every protocol phase, spanning client,
  // merchant, witness and broker nodes.
  std::uint64_t payment_trace = 0;
  for (const auto& s : spans)
    if (s.name == "payment" && s.parent == 0) payment_trace = s.trace;
  ASSERT_NE(payment_trace, 0u);
  std::map<std::string, const ParsedSpan*> phases;
  std::set<std::uint64_t> nodes;
  for (const auto& s : spans)
    if (s.trace == payment_trace) {
      phases.emplace(s.name, &s);
      nodes.insert(s.node);
    }
  for (const char* phase :
       {"payment", "payment_commit", "witness_sign", "witness_commit",
        "merchant_validate", "witness_countersign", "deposit"}) {
    EXPECT_TRUE(phases.count(phase)) << "payment trace missing " << phase;
  }
  EXPECT_GE(nodes.size(), 3u) << "payment trace did not cross nodes";
  // Server spans really ran on OTHER nodes than the client's root.
  ASSERT_TRUE(phases.count("payment") && phases.count("witness_commit"));
  EXPECT_NE(phases["payment"]->node, phases["witness_commit"]->node);

  // The withdraw trace exists too and reaches the broker.
  std::uint64_t withdraw_trace = 0;
  for (const auto& s : spans)
    if (s.name == "withdraw" && s.parent == 0) withdraw_trace = s.trace;
  ASSERT_NE(withdraw_trace, 0u);
  bool saw_broker_offer = false;
  for (const auto& s : spans)
    if (s.trace == withdraw_trace && s.name == "broker_withdraw_offer")
      saw_broker_offer = true;
  EXPECT_TRUE(saw_broker_offer);
}

TEST(PaymentOverTcp, TraceSurvivesMerchantRestart) {
  auto& grp = group::SchnorrGroup::test_256();
  NodeRuntime rt(grp, TcpHarness::options());
  auto& client = rt.add_client();
  rt.start();

  auto coin = std::move(rt.withdraw(client, 100)).value();
  MerchantId target;
  for (const auto& id : rt.merchant_ids()) {
    bool is_witness = false;
    for (const auto& w : coin.coin.witnesses)
      if (w.merchant == id) is_witness = true;
    if (!is_witness) target = id;
  }
  rt.set_merchant_down(target, true);
  auto failed = rt.pay(client, coin, target, kPayTimeoutMs);
  EXPECT_FALSE(failed.accepted);
  rt.set_merchant_down(target, false);
  auto coin2 = std::move(rt.withdraw(client, 100)).value();
  auto ok = rt.pay(client, coin2, target, kPayTimeoutMs);
  EXPECT_TRUE(ok.accepted) << (ok.error ? *ok.error : "");
  rt.stop();

  // The failed attempt left retry/silence breadcrumbs in its trace, the
  // transport recorded the outage, and the post-restart payment still
  // produced a complete, stitched tree.
  const std::string jsonl = rt.trace_sink().to_jsonl();
  EXPECT_TRUE(jsonl.find("rpc.retry") != std::string::npos ||
              jsonl.find("rpc.silence") != std::string::npos ||
              jsonl.find("rpc.exhausted") != std::string::npos)
      << jsonl;
  const std::string flight = rt.flight_recorder().dump_to_string();
  EXPECT_NE(flight.find("net.node_down"), std::string::npos) << flight;
  EXPECT_NE(flight.find("net.node_up"), std::string::npos);

  const auto spans = parse_spans(jsonl);
  std::map<std::uint64_t, const ParsedSpan*> by_id;
  for (const auto& s : spans) by_id[s.span] = &s;
  for (const auto& s : spans) {
    if (s.parent == 0) continue;
    const auto parent = by_id.find(s.parent);
    ASSERT_NE(parent, by_id.end()) << "orphan span " << s.name;
    EXPECT_EQ(parent->second->trace, s.trace);
  }
}

TEST(PaymentOverTcp, WitnessFailoverStampsTheTrace) {
  auto& grp = group::SchnorrGroup::test_256();
  auto opt = TcpHarness::options();
  opt.broker.witness_n = 2;  // a spare to fail over to
  opt.broker.witness_k = 1;
  NodeRuntime rt(grp, opt);
  auto& client = rt.add_client();
  rt.start();

  auto coin = std::move(rt.withdraw(client, 100)).value();
  ASSERT_GE(coin.coin.witnesses.size(), 2u);
  // "Primary" = first in the client's engage order (chord walk from the
  // coin's witness point) — same recipe as the chaos failover scenario.
  const bn::BigInt key = coin.coin.bare.witness_point(0);
  std::vector<bn::BigInt> points;
  for (const auto& entry : coin.coin.witnesses) points.push_back(entry.lo);
  const auto order = overlay::failover_order(key, points);
  const auto primary = coin.coin.witnesses[order.front()].merchant;
  rt.set_merchant_down(primary, true);

  MerchantId target;
  for (const auto& id : rt.merchant_ids()) {
    bool is_witness = false;
    for (const auto& w : coin.coin.witnesses)
      if (w.merchant == id) is_witness = true;
    if (!is_witness) target = id;
  }
  auto result = rt.pay(client, coin, target, kPayTimeoutMs);
  EXPECT_TRUE(result.accepted) << (result.error ? *result.error : "");
  rt.stop();

  EXPECT_GE(client.resilience().failovers, 1u);
  // The failover is visible in the payment's own trace, not just in
  // aggregate counters.
  const auto spans = parse_spans(rt.trace_sink().to_jsonl());
  std::uint64_t payment_trace = 0;
  for (const auto& s : spans)
    if (s.name == "payment" && s.parent == 0) payment_trace = s.trace;
  ASSERT_NE(payment_trace, 0u);
  const std::string trace = rt.trace_sink().trace_jsonl(payment_trace);
  EXPECT_NE(trace.find("rpc.failover"), std::string::npos) << trace;
}

TEST(PaymentOverTcp, LiveScrapeServesTransportMetrics) {
  auto& grp = group::SchnorrGroup::test_256();
  NodeRuntime rt(grp, TcpHarness::options());
  auto& client = rt.add_client();
  rt.start();
  const std::uint16_t port = rt.start_obs_server(0);
  ASSERT_NE(port, 0);

  auto coin = std::move(rt.withdraw(client, 100)).value();
  auto result = rt.pay(client, coin, coin.coin.witnesses.front().merchant,
                       kPayTimeoutMs);
  // Accepted or not, traffic flowed; scrape the live node mid-run.
  auto http_get = [port](const std::string& target) {
    std::string raw;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return raw;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
      (void)::send(fd, req.data(), req.size(), 0);
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        raw.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return raw;
  };

  const std::string metrics = http_get("/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  // Transport/pool/span instrumentation is all flowing into one registry.
  EXPECT_NE(metrics.find("transport_messages_sent_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("transport_pool_queue_delay_ms"), std::string::npos);
  EXPECT_NE(metrics.find("span_payment_ms"), std::string::npos);
  const std::string health = http_get("/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  const std::string traces = http_get("/tracez");
  EXPECT_NE(traces.find("\"transport\":\"tcp\""), std::string::npos);
  rt.stop();
}

}  // namespace
}  // namespace p2pcash::actors
