#include "layers.h"

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/chacha.h"
#include "ecash/broker.h"
#include "ecash/merchant.h"
#include "ecash/wallet.h"
#include "ecash/witness.h"
#include "host_speed.h"
#include "metrics/counters.h"
#include "nizk/representation.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "sig/schnorr_sig.h"
#include "stats.h"
#include "store/log_store.h"
#include "store/vfs.h"
#include "transport/tcp_net.h"
#include "wire/codec.h"
#include "wire/framing.h"

namespace p2pcash_bench {

namespace {

using namespace p2pcash;
using ecash::MerchantId;
using ecash::WalletCoin;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kClientNode = 0;
constexpr std::uint32_t kBrokerNode = 1;
constexpr std::uint32_t kFirstMerchantNode = 2;
constexpr std::size_t kWalkPayments = 160;
constexpr std::size_t kSmokeWalkPayments = 40;
/// commerce deposits every 25 ms at 60 sessions/s: one merchant's queue
/// every 1.5 sessions, replayed as one flush per two sessions.
constexpr std::size_t kSessionsPerFlush = 2;
constexpr int kPrimitiveIters = 48;
constexpr int kWireIters = 2000;
constexpr int kRttWarmup = 50;
constexpr int kRttIters = 400;
constexpr int kFsyncIters = 16;

double us_since(Clock::time_point t) {
  return ms_between(t, Clock::now()) * 1000.0;
}

struct CallStat {
  std::size_t count = 0;
  double total_us = 0;
};

/// Times and traces calls into the layers.  Single-threaded: `current` is
/// the span the next call nests under (the store decorators read it too).
struct Probe {
  obs::WallClock clock;
  obs::TraceSink sink{std::size_t{1} << 18};
  obs::Tracer tracer{clock, &sink};
  obs::TraceContext current;
  std::map<std::string, CallStat> calls;
  std::uint64_t store_records = 0;
  std::uint64_t store_bytes = 0;

  /// Runs `fn` as one call into a layer: timed always, traced when the
  /// enclosing operation is.
  template <typename F>
  decltype(auto) call(const std::string& name, std::uint32_t node, F&& fn) {
    struct Scope {
      Probe& p;
      const std::string& name;
      obs::TraceContext parent;
      obs::TraceContext span;
      Clock::time_point start = Clock::now();
      ~Scope() {
        CallStat& stat = p.calls[name];
        ++stat.count;
        stat.total_us += us_since(start);
        p.tracer.end_span(span);
        p.current = parent;
      }
    } scope{*this, name, current, tracer.start_child(current, name, node)};
    current = scope.span;
    return fn();
  }

  double mean_us(const std::string& name) const {
    auto it = calls.find(name);
    return it == calls.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.count);
  }
};

/// Store decorator: times append/commit and counts what is journaled.
class TimedStore final : public store::Store {
 public:
  TimedStore(store::Store& inner, Probe& probe, std::uint32_t node)
      : inner_(inner), probe_(probe), node_(node) {}

  bool empty() const override { return inner_.empty(); }
  void append(std::span<const std::uint8_t> delta) override {
    probe_.call("store.append", node_, [&] { inner_.append(delta); });
    ++probe_.store_records;
    probe_.store_bytes += delta.size();
  }
  void commit() override {
    probe_.call("store.commit", node_, [&] { inner_.commit(); });
  }
  void checkpoint(std::vector<std::uint8_t> snapshot) override {
    inner_.checkpoint(std::move(snapshot));
  }
  store::Recovered recover() override { return inner_.recover(); }

 private:
  store::Store& inner_;
  Probe& probe_;
  std::uint32_t node_;
};

/// Per-operation accounting (crypto op counts, store records, wall time).
struct OpStat {
  std::size_t count = 0;
  metrics::OpCounters ops;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::vector<double> traced_us, untraced_us;

  double per(std::uint64_t total) const {
    return count ? static_cast<double>(total) / static_cast<double>(count)
                 : 0.0;
  }
};

class Walk {
 public:
  Walk(const RunConfig& config, Probe& probe)
      : cfg_(config),
        w_(config.workload),
        grp_(group::SchnorrGroup::production_1024()),
        probe_(probe),
        setup_rng_(config.seed),
        broker_rng_(setup_rng_.fork("broker")),
        wallet_rng_(setup_rng_.fork("wallet")),
        choice_(config.seed ^ 0x77616c6bULL),  // "walk"
        broker_log_(vfs_, "broker.log"),
        broker_store_(broker_log_, probe_, kBrokerNode),
        broker_(grp_, broker_rng_, broker_config()),
        wallet_(grp_, broker_.coin_key(), broker_.identity_key(),
                wallet_rng_) {
    // The runtime's durable recipe: broker journal, then merchants, each
    // with a journaled witness, then table publication.
    broker_.attach_store(broker_store_);
    nodes_.reserve(kMerchants);
    for (std::size_t i = 0; i < kMerchants; ++i) {
      char name[16];
      std::snprintf(name, sizeof name, "m%03zu", i);
      auto node = std::make_unique<MerchantNode>();
      node->id = name;
      node->node = kFirstMerchantNode + static_cast<std::uint32_t>(i);
      auto key = sig::KeyPair::generate(grp_, setup_rng_);
      broker_.register_merchant(node->id, key.public_key(), 10'000);
      node->rng = std::make_unique<crypto::ChaChaRng>(setup_rng_.fork(name));
      node->merchant = std::make_unique<ecash::Merchant>(
          grp_, broker_.coin_key(), node->id, key, *node->rng);
      node->witness = std::make_unique<ecash::WitnessService>(
          grp_, broker_.coin_key(), node->id, key, *node->rng);
      node->log = std::make_unique<store::LogStore>(
          vfs_, "witness-" + node->id + ".log");
      node->store =
          std::make_unique<TimedStore>(*node->log, probe_, node->node);
      node->witness->attach_store(*node->store);
      nodes_.push_back(std::move(node));
    }
    broker_.publish_witness_table(0);
  }

  void run(std::size_t honest_payments);

  const std::map<std::string, OpStat>& op_stats() const { return op_stats_; }
  const std::optional<ecash::PaymentTranscript>& sample_transcript() const {
    return sample_;
  }
  std::size_t failures() const { return failures_; }
  std::size_t respends() const { return respends_; }

 private:
  struct MerchantNode {
    MerchantId id;
    std::uint32_t node = 0;
    std::unique_ptr<crypto::ChaChaRng> rng;
    std::unique_ptr<ecash::Merchant> merchant;
    std::unique_ptr<ecash::WitnessService> witness;
    std::unique_ptr<store::LogStore> log;
    std::unique_ptr<TimedStore> store;
  };
  struct Spent {
    const WalletCoin* coin;
    std::size_t merchant;
  };

  ecash::Broker::Config broker_config() const {
    ecash::Broker::Config c;
    c.witness_n = w_.witness_n;
    c.witness_k = w_.witness_k;
    return c;
  }
  ecash::Timestamp now() const {
    return static_cast<ecash::Timestamp>(probe_.clock.now_ms());
  }
  MerchantNode& node(const MerchantId& id) {
    for (auto& n : nodes_)
      if (n->id == id) return *n;
    throw std::invalid_argument("walk: unknown merchant " + id);
  }
  bool usable(const WalletCoin& coin) const {
    std::set<MerchantId> distinct;
    for (const auto& e : coin.coin.witnesses) distinct.insert(e.merchant);
    return distinct.size() >= w_.witness_k;
  }

  /// One operation: the operations of each kind alternately traced and
  /// untraced (the difference in wall time is the tracing overhead), with
  /// crypto op counts and store records attributed to `kind`.
  template <typename F>
  bool op(const char* kind, F&& fn) {
    OpStat& stat = op_stats_[kind];
    const bool traced = stat.count % 2 == 0;
    const obs::TraceContext root =
        traced ? probe_.tracer.start_root(kind, kClientNode)
               : obs::TraceContext{};
    probe_.current = root;
    const metrics::OpCounters before = metrics::thread_op_totals();
    const auto records = probe_.store_records;
    const auto bytes = probe_.store_bytes;
    const auto start = Clock::now();
    const bool ok = fn();
    (traced ? stat.traced_us : stat.untraced_us).push_back(us_since(start));
    ++stat.count;
    stat.ops += metrics::thread_op_totals() - before;
    stat.records += probe_.store_records - records;
    stat.bytes += probe_.store_bytes - bytes;
    probe_.tracer.end_span(root, ok ? "ok" : "failed");
    probe_.current = {};
    if (!ok) ++failures_;
    return ok;
  }

  std::optional<WalletCoin> withdraw();
  /// The payment protocol at merchant `m`; true when it ended as intended
  /// (an honest payment accepted, a re-spend refused with a proof).
  bool pay(const WalletCoin& coin, std::size_t m, bool respend);
  void deposit_all(std::size_t m);
  void respend_one();

  const RunConfig& cfg_;
  const Workload& w_;
  const group::SchnorrGroup& grp_;
  Probe& probe_;
  crypto::ChaChaRng setup_rng_;
  crypto::ChaChaRng broker_rng_;
  crypto::ChaChaRng wallet_rng_;
  std::mt19937_64 choice_;
  store::MemVfs vfs_;
  store::LogStore broker_log_;
  TimedStore broker_store_;
  ecash::Broker broker_;
  ecash::Wallet wallet_;
  std::vector<std::unique_ptr<MerchantNode>> nodes_;

  std::deque<WalletCoin> coins_;
  std::deque<Spent> respendable_;
  std::map<std::string, OpStat> op_stats_;
  std::optional<ecash::PaymentTranscript> sample_;
  std::size_t failures_ = 0;
  std::size_t respends_ = 0;
};

std::optional<WalletCoin> Walk::withdraw() {
  std::optional<WalletCoin> out;
  op("withdraw", [&] {
    auto offer = probe_.call("ecash.broker.start_withdrawal", kBrokerNode, [&] {
      return broker_.start_withdrawal(kDenomination, now());
    });
    if (!offer) return false;
    auto state = probe_.call("ecash.wallet.begin_withdrawal", kClientNode,
                             [&] { return wallet_.begin_withdrawal(offer.value()); });
    auto response =
        probe_.call("ecash.broker.finish_withdrawal", kBrokerNode, [&] {
          return broker_.finish_withdrawal(state.session, state.e);
        });
    if (!response) return false;
    auto coin =
        probe_.call("ecash.wallet.complete_withdrawal", kClientNode, [&] {
          return wallet_.complete_withdrawal(state, response.value(),
                                             broker_.current_table());
        });
    if (!coin) return false;
    out = std::move(coin).value();
    return true;
  });
  return out;
}

bool Walk::pay(const WalletCoin& coin, std::size_t m, bool respend) {
  return op(respend ? "respend" : "payment", [&] {
    MerchantNode& shop = *nodes_[m];
    auto intent = probe_.call("ecash.wallet.prepare_payment", kClientNode,
                              [&] { return wallet_.prepare_payment(coin, shop.id); });
    std::vector<ecash::WitnessCommitment> commitments;
    for (const auto& entry : coin.coin.witnesses) {
      if (commitments.size() >= w_.witness_k) break;
      bool already = false;
      for (const auto& c : commitments) already |= c.witness == entry.merchant;
      if (already) continue;
      MerchantNode& witness = node(entry.merchant);
      auto c = probe_.call("ecash.witness.request_commitment", witness.node, [&] {
        return witness.witness->request_commitment(intent.coin_hash,
                                                   intent.nonce, now());
      });
      if (c) commitments.push_back(std::move(c).value());
    }
    if (commitments.size() < w_.witness_k) return false;
    auto transcript = probe_.call("ecash.wallet.build_transcript", kClientNode, [&] {
      return wallet_.build_transcript(coin, intent, commitments, now());
    });
    if (!transcript) return false;
    if (!sample_) sample_ = transcript.value();
    auto received = probe_.call("ecash.merchant.receive_payment", shop.node, [&] {
      return shop.merchant->receive_payment(transcript.value(), commitments,
                                            now());
    });
    if (!received) return false;
    for (const auto& c : commitments) {
      MerchantId witness_id = c.witness;
      MerchantNode& witness = node(witness_id);
      auto sign = probe_.call(respend ? "ecash.witness.sign_transcript_ds"
                                      : "ecash.witness.sign_transcript",
                              witness.node, [&] {
                                return witness.witness->sign_transcript(
                                    transcript.value(), now());
                              });
      if (!sign) return false;
      if (const auto* proof =
              std::get_if<ecash::DoubleSpendProof>(&sign.value())) {
        auto judged =
            probe_.call("ecash.merchant.handle_double_spend", shop.node, [&] {
              return shop.merchant->handle_double_spend(intent.coin_hash,
                                                        *proof);
            });
        return respend && judged.ok();
      }
      auto done = probe_.call("ecash.merchant.add_endorsement", shop.node, [&] {
        return shop.merchant->add_endorsement(
            intent.coin_hash, std::get<ecash::WitnessEndorsement>(sign.value()));
      });
      if (!done) return false;
      if (done.value()) return !respend;
    }
    return false;
  });
}

void Walk::deposit_all(std::size_t m) {
  MerchantNode& shop = *nodes_[m];
  for (auto& st : shop.merchant->drain_deposit_queue()) {
    op("deposit", [&] {
      return probe_
          .call("ecash.broker.deposit", kBrokerNode,
                [&] { return broker_.deposit(shop.id, st, now()); })
          .ok();
    });
  }
}

void Walk::respend_one() {
  const Spent first = respendable_.front();
  respendable_.pop_front();
  const std::size_t other = 1 + choice_() % (kMerchants - 1);
  pay(*first.coin, (first.merchant + other) % kMerchants, true);
  ++respends_;
}

void Walk::run(std::size_t honest_payments) {
  const std::size_t offset = choice_() % kRespendEvery;
  const std::size_t slots =
      honest_payments * kRespendEvery / (kRespendEvery - 1);
  if (!w_.sessions) {
    while (coins_.size() < honest_payments) {
      auto coin = withdraw();
      if (!coin) return;
      if (usable(*coin)) coins_.push_back(std::move(*coin));
    }
  }
  std::size_t next_coin = 0, sessions = 0, flush_merchant = 0;
  for (std::size_t i = 0; i < slots; ++i) {
    const std::size_t m = choice_() % kMerchants;
    if (i % kRespendEvery == offset && !respendable_.empty()) {
      respend_one();
      continue;
    }
    if (w_.sessions) {
      auto coin = withdraw();
      if (!coin) continue;
      coins_.push_back(std::move(*coin));
      next_coin = coins_.size() - 1;
      if (++sessions % kSessionsPerFlush == 0)
        deposit_all(flush_merchant++ % kMerchants);
    } else if (next_coin >= coins_.size()) {
      break;
    }
    const WalletCoin& coin = coins_[next_coin++];
    if (pay(coin, m, false)) respendable_.push_back({&coin, m});
  }
  if (respends_ == 0 && !respendable_.empty()) respend_one();
  for (std::size_t m = 0; m < kMerchants; ++m) deposit_all(m);
}

// ---------------------------------------------------------------------------
// Probes below the ecash layer
// ---------------------------------------------------------------------------

/// Times probes and takes the result to nominal host speed.
struct Timer {
  const HostSpeed& host;
  Clock::time_point origin;

  double now_ms() const { return ms_between(origin, Clock::now()); }
  /// Nominal-speed factor for a measurement that began at `from_ms`.
  double scale_since(double from_ms) const {
    return host.scale(from_ms, now_ms());
  }
  template <typename F>
  double per_iter_us(int iters, F&& fn) const {
    const double from = now_ms();
    for (int i = 0; i < iters; ++i) fn(i);
    return (now_ms() - from) * 1000.0 / iters * scale_since(from);
  }
};

void probe_primitives(std::uint64_t seed, const Timer& timer,
                      Report& report) {
  const auto& grp = group::SchnorrGroup::production_1024();
  crypto::ChaChaRng rng(seed ^ 0x7072696dULL);  // "prim"
  const auto n = static_cast<std::size_t>(kPrimitiveIters);
  std::vector<bn::BigInt> bases, exps, out(n);
  std::vector<std::vector<std::uint8_t>> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    bases.push_back(grp.exp_g(grp.random_scalar(rng)));
    exps.push_back(grp.random_scalar(rng));
    std::vector<std::uint8_t> in(32);
    rng.fill(in);
    inputs.push_back(std::move(in));
  }
  auto at = [](int i) { return static_cast<std::size_t>(i); };
  // Fresh bases never reach the recurring-base table cache.
  report.add("group.exp_us", timer.per_iter_us(kPrimitiveIters, [&](int i) {
               out[at(i)] = grp.exp(bases[at(i)], exps[at(i)]);
             }), "us");
  report.add("group.exp_fixed_us",
             timer.per_iter_us(kPrimitiveIters, [&](int i) {
               out[at(i)] = grp.exp_g(exps[at(i)]);
             }), "us");
  report.add("group.hash_to_group_us",
             timer.per_iter_us(kPrimitiveIters, [&](int i) {
               out[at(i)] = grp.hash_to_group(inputs[at(i)]);
             }), "us");
  report.add("group.hash_to_group_memo_us",
             timer.per_iter_us(kPrimitiveIters, [&](int i) {
               out[at(i)] = grp.hash_to_group(inputs[0]);
             }), "us");

  std::vector<nizk::Commitments> comms;
  std::vector<nizk::Response> responses;
  for (std::size_t i = 0; i < n; ++i) {
    const auto secret = nizk::CoinSecret::random(grp, rng);
    comms.push_back(nizk::commit(grp, secret));
    responses.push_back(nizk::respond(grp, secret, exps[i]));
  }
  bool all_ok = true;
  report.add("nizk.verify_response_us",
             timer.per_iter_us(kPrimitiveIters, [&](int i) {
               all_ok &= nizk::verify_response(grp, comms[at(i)], exps[at(i)],
                                               responses[at(i)]);
             }), "us");
  // One signer verified many times, as a service verifies a peer's key.
  const auto key = sig::KeyPair::generate(grp, rng);
  std::vector<sig::Signature> sigs;
  for (std::size_t i = 0; i < n; ++i) sigs.push_back(key.sign(inputs[i], rng));
  report.add("sig.verify_us", timer.per_iter_us(kPrimitiveIters, [&](int i) {
               all_ok &= sig::verify(grp, key.public_key(), inputs[at(i)],
                                     sigs[at(i)]);
             }), "us");
  report.gate("primitive_probes_verify", all_ok, "");
}

void probe_wire(const ecash::PaymentTranscript& transcript, const Timer& timer,
                Report& report) {
  const auto bytes = wire::encode(transcript);
  std::size_t sink = 0;
  report.add("wire.transcript_bytes", static_cast<double>(bytes.size()),
             "bytes");
  report.add("wire.encode_transcript_us", timer.per_iter_us(kWireIters, [&](int) {
               sink += wire::encode(transcript).size();
             }), "us");
  bool same = true;
  report.add("wire.decode_transcript_us", timer.per_iter_us(kWireIters, [&](int) {
               same &= wire::decode<ecash::PaymentTranscript>(bytes) ==
                       transcript;
             }), "us");
  report.add("wire.frame_roundtrip_us", timer.per_iter_us(kWireIters, [&](int) {
               std::vector<std::uint8_t> framed;
               wire::append_frame(framed, bytes);
               wire::FrameDecoder decoder;
               decoder.feed(framed);
               sink += decoder.next()->size();
             }), "us");
  report.gate("wire_roundtrip", same && sink > 0, "");
}

/// Echoes "ping" as "pong"; counts pongs for the waiting prober.
class Echo final : public simnet::Node {
 public:
  explicit Echo(transport::TcpNet& net) : net_(net) {}
  void on_message(const simnet::Message& msg) override {
    if (msg.type == "ping") {
      net_.send(simnet::Message{id(), msg.from, "pong", msg.payload, {}});
      return;
    }
    std::lock_guard lock(mu_);
    ++pongs_;
    cv_.notify_all();
  }
  bool wait_pongs(std::size_t n) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return pongs_ >= n; });
  }

 private:
  transport::TcpNet& net_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t pongs_ = 0;
};

/// Median loopback round trip of a transcript-sized message between two
/// TcpNet endpoints (framing, syscalls, io thread and strand hand-off).
void probe_rtt(std::size_t payload_bytes, std::uint64_t seed, const Timer& timer,
               Report& report) {
  transport::TcpNet::Options options;
  options.worker_threads = 1;
  options.seed = seed;
  transport::TcpNet net(options);
  Echo a(net), b(net);
  net.attach(a);
  net.attach(b);
  net.start();
  const std::vector<std::uint8_t> payload(payload_bytes, 0x5a);
  const double from = timer.now_ms();
  std::vector<double> rtt;
  bool ok = true;
  for (int i = 0; i < kRttWarmup + kRttIters && ok; ++i) {
    const auto start = Clock::now();
    net.send(simnet::Message{a.id(), b.id(), "ping", payload, {}});
    ok = a.wait_pongs(static_cast<std::size_t>(i) + 1);
    if (i >= kRttWarmup) rtt.push_back(us_since(start));
  }
  const double scale = timer.scale_since(from);
  net.stop();
  report.add("transport.rtt_us", percentile(rtt, 50) * scale, "us",
             rtt.size());
  report.gate("rtt_probe", ok, "");
}

/// What a real disk adds per group commit: PosixVfs append + fdatasync in
/// a scratch directory under the output directory.
void probe_fsync(const std::string& out_dir, Report& report) {
  const std::string dir = out_dir + "/fsync_probe";
  std::vector<double> sync_us;
  {
    store::PosixVfs vfs(dir);
    auto file = vfs.open("probe.log");
    const std::vector<std::uint8_t> record(256, 0xa5);
    for (int i = 0; i < kFsyncIters; ++i) {
      file->append(record);
      sync_us.push_back(file->sync() * 1000.0);
    }
    file.reset();
    vfs.remove("probe.log");
  }
  std::filesystem::remove_all(dir);
  report.add("store.posix_fsync_us", percentile(sync_us, 50), "us",
             sync_us.size());
}

struct BudgetRow {
  const char* role;
  std::string call;
  double ms;
};

void print_budget(const RunConfig& cfg, const std::vector<BudgetRow>& rows,
                  double total_ms, std::size_t samples, Report& report) {
  double sum = 0;
  for (const auto& r : rows) sum += r.ms;
  const double remainder = total_ms - sum;
  auto line = [&report](const std::string& s) {
    std::printf("%s\n", s.c_str());
    report.text(s);
  };
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "budget %s: untraced op_p50_ms %.3f ms (n=%zu) = rows + "
                "remainder, all at nominal host speed",
                cfg.workload.name.c_str(), total_ms, samples);
  line(buf);
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof buf, "  %-9s %-40s %9.3f ms %6.1f%%", r.role,
                  r.call.c_str(), r.ms, 100.0 * r.ms / total_ms);
    line(buf);
  }
  std::snprintf(buf, sizeof buf, "  %-9s %-40s %9.3f ms %6.1f%%", "-",
                "unattributed remainder", remainder,
                100.0 * remainder / total_ms);
  line(buf);
  report.add("budget.remainder_ms", remainder, "ms");
}

}  // namespace

void run_layer_walk(const RunConfig& config, Report& report) {
  const Workload& w = config.workload;
  const auto origin = Clock::now();
  const HostSpeed host(origin);
  const Timer timer{host, origin};
  Probe probe;
  probe.sink.set_meta({"inproc", std::thread::hardware_concurrency()});
  Walk walk(config, probe);
  const double walk_from = timer.now_ms();
  walk.run(config.smoke ? kSmokeWalkPayments : kWalkPayments);
  const double walk_scale = timer.scale_since(walk_from);

  const auto& stats = walk.op_stats();
  auto op_stat = [&stats](const char* kind) {
    auto it = stats.find(kind);
    return it == stats.end() ? OpStat{} : it->second;
  };
  const OpStat pay = op_stat("payment"), withdraw = op_stat("withdraw"),
               deposit = op_stat("deposit");
  report.gate("walk_outcomes", walk.failures() == 0 && walk.respends() > 0 &&
                                   pay.count > 0 && deposit.count > 0,
              std::to_string(walk.failures()) + " walk operations failed");

  const double k = w.witness_k;
  auto us = [&probe, walk_scale](const char* name) {
    return probe.mean_us(name) * walk_scale;
  };
  for (const char* name :
       {"ecash.wallet.prepare_payment", "ecash.wallet.build_transcript",
        "ecash.witness.request_commitment", "ecash.witness.sign_transcript",
        "ecash.witness.sign_transcript_ds", "ecash.merchant.receive_payment",
        "ecash.merchant.add_endorsement", "ecash.merchant.handle_double_spend",
        "ecash.broker.start_withdrawal", "ecash.broker.finish_withdrawal",
        "ecash.wallet.begin_withdrawal", "ecash.wallet.complete_withdrawal",
        "ecash.broker.deposit"})
    report.add(std::string(name) + "_us", us(name), "us");
  // Critical paths: the k witnesses work in parallel, the merchant folds
  // their k endorsements in one after another.
  const double pay_cpu_us =
      us("ecash.wallet.prepare_payment") +
      us("ecash.witness.request_commitment") +
      us("ecash.wallet.build_transcript") +
      us("ecash.merchant.receive_payment") +
      us("ecash.witness.sign_transcript") +
      k * us("ecash.merchant.add_endorsement");
  const double withdraw_cpu_us = us("ecash.broker.start_withdrawal") +
                                 us("ecash.wallet.begin_withdrawal") +
                                 us("ecash.broker.finish_withdrawal") +
                                 us("ecash.wallet.complete_withdrawal");
  report.add("ecash.pay_cpu_us", pay_cpu_us, "us");
  report.add("ecash.withdraw_cpu_us", withdraw_cpu_us, "us");

  probe_primitives(config.seed, timer, report);
  report.add("crypto.exp_per_pay", pay.per(pay.ops.exp), "count");
  report.add("crypto.hash_per_pay", pay.per(pay.ops.hash), "count");
  report.add("crypto.sig_per_pay", pay.per(pay.ops.sig), "count");
  report.add("crypto.ver_per_pay", pay.per(pay.ops.ver), "count");
  report.add("crypto.exp_per_withdraw", withdraw.per(withdraw.ops.exp),
             "count");
  report.add("crypto.exp_per_deposit", deposit.per(deposit.ops.exp), "count");
  // Table-1 style cross-check: every exponentiation a payment runs (the
  // totals include those inside signatures) at the variable-base cost.
  report.add("crypto.est_pay_us",
             pay.per(pay.ops.exp) * report.at("group.exp_us"), "us");

  report.add("store.append_us", us("store.append"), "us");
  report.add("store.commit_us", us("store.commit"), "us");
  report.add("store.records_per_pay", pay.per(pay.records), "records");
  report.add("store.bytes_per_pay", pay.per(pay.bytes), "bytes");
  report.add("store.records_per_withdraw", withdraw.per(withdraw.records),
             "records");
  report.add("store.records_per_deposit", deposit.per(deposit.records),
             "records");
  probe_fsync(config.out_dir, report);

  if (walk.sample_transcript()) {
    probe_wire(*walk.sample_transcript(), timer, report);
    probe_rtt(wire::encode(*walk.sample_transcript()).size(), config.seed,
              timer, report);
  }

  const double traced = mean(pay.traced_us), untraced = mean(pay.untraced_us);
  const double overhead_pct = 100.0 * (traced / untraced - 1.0);
  report.add("bench.trace_overhead_pct", overhead_pct, "%");
  char line[200];
  std::snprintf(line, sizeof line,
                "tracing overhead: traced payments %.1f us vs untraced %.1f us "
                "in the walk (%+.1f%%)",
                traced, untraced, overhead_pct);
  std::printf("%s\n", line);
  report.text(line);

  const double rtt_ms = report.at("transport.rtt_us") / 1000.0;
  std::vector<BudgetRow> rows;
  if (w.sessions) {
    rows.push_back({"broker", "broker.start_withdrawal",
                    us("ecash.broker.start_withdrawal") / 1000});
    rows.push_back({"client", "wallet.begin_withdrawal",
                    us("ecash.wallet.begin_withdrawal") / 1000});
    rows.push_back({"broker", "broker.finish_withdrawal",
                    us("ecash.broker.finish_withdrawal") / 1000});
    rows.push_back({"client", "wallet.complete_withdrawal",
                    us("ecash.wallet.complete_withdrawal") / 1000});
    rows.push_back({"net", "2 x transport.rtt (withdrawal)", 2 * rtt_ms});
  }
  rows.push_back({"client", "wallet.prepare_payment",
                  us("ecash.wallet.prepare_payment") / 1000});
  rows.push_back({"witness", "witness.request_commitment",
                  us("ecash.witness.request_commitment") / 1000});
  rows.push_back({"client", "wallet.build_transcript",
                  us("ecash.wallet.build_transcript") / 1000});
  rows.push_back({"merchant", "merchant.receive_payment",
                  us("ecash.merchant.receive_payment") / 1000});
  rows.push_back({"witness", "witness.sign_transcript",
                  us("ecash.witness.sign_transcript") / 1000});
  rows.push_back({"merchant",
                  w.witness_k > 1 ? "merchant.add_endorsement x k"
                                  : "merchant.add_endorsement",
                  k * us("ecash.merchant.add_endorsement") / 1000});
  rows.push_back({"net", "3 x transport.rtt (payment)", 3 * rtt_ms});
  const Metric* p50 = report.find("op_p50_ms");
  print_budget(config, rows, p50->value, p50->samples, report);

  const std::string path =
      config.out_dir + "/TRACE_" + config.workload.name + ".jsonl";
  report.gate("trace_written", probe.sink.write_jsonl(path), path);
}

}  // namespace p2pcash_bench
