#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "actors/runtime.h"
#include "host_speed.h"
#include "stats.h"

namespace p2pcash_bench {

namespace {

using p2pcash::actors::ClientActor;
using p2pcash::actors::NodeRuntime;
using p2pcash::ecash::MerchantId;
using p2pcash::ecash::Outcome;
using p2pcash::ecash::WalletCoin;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kWorkerThreads = 3;
constexpr std::size_t kClients = 4;
constexpr int kNodeBuilds = 3;           // setup_s takes the median build
constexpr std::size_t kMintInFlight = 32;
constexpr p2pcash::simnet::SimTime kPayTimeoutMs = 10'000;
constexpr p2pcash::simnet::SimTime kWithdrawDeadlineMs = 10'000;
constexpr double kMaxOpLatencyMs = 5'000;  // gate: open-loop completion
constexpr double kMaxGenLateP99Ms = 5;     // warning: generator punctuality
constexpr double kCrossCheckTolerance = 0.15;
// Closed loop: warm-up coins per warm-up second; the margin over the
// warm-up's rate taken to the fastest host speed seen on the reference host
// (kernel time in us, host_speed.h) when minting for the timed window.
constexpr double kClosedWarmupCoinsPerS = 300;
constexpr double kClosedMintMargin = 1.1;
constexpr double kFastestHostUs = 50;

/// Layer histograms read as differences across the timed window.
const char* const kWindowHistograms[] = {
    "transport_io_loop_busy_ms",     "transport_timer_delay_ms",
    "transport_strand_batch",        "transport_pool_queue_delay_ms",
    "transport_pool_drain_batch",    "store_commit_batch_records",
};

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Blocking HTTP/1.0 GET against the node's own obs server; "" on failure.
std::string scrape(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
    if (::send(fd, req.data(), req.size(), 0) ==
        static_cast<ssize_t>(req.size())) {
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        raw.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const auto header_end = raw.find("\r\n\r\n");
  return header_end == std::string::npos ? std::string{}
                                         : raw.substr(header_end + 4);
}

/// Value of an unlabelled sample in Prometheus text; NaN when absent.
double prom_value(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const auto at = ("\n" + text).find(key);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + at + key.size() - 1, nullptr);
}

struct HistPoint {
  std::uint64_t count = 0;
  double sum = 0;
};

/// Window-difference mean of a histogram; 0 when nothing was recorded.
double window_mean(const HistPoint& a, const HistPoint& b) {
  return b.count > a.count
             ? (b.sum - a.sum) / static_cast<double>(b.count - a.count)
             : 0.0;
}

struct Snapshot {
  double cpu_ms = 0;
  std::map<std::string, HistPoint> hist;
  p2pcash::transport::TcpNet::Stats net;
  std::uint64_t spans = 0;
};

struct Op {
  enum class Kind : std::uint8_t { kPay, kRespend, kSession };
  Kind kind = Kind::kPay;
  std::size_t merchant = 0;
  const WalletCoin* coin = nullptr;  ///< coin spent (pay and re-spend)
  std::optional<WalletCoin> minted;  ///< session: the coin it withdrew
  bool in_window = false;
  double due_ms = 0;        ///< open loop: schedule; closed loop: post time
  double posted_ms = 0;
  double pay_start_ms = 0;  ///< session: withdrawal done, payment begins
  double done_ms = 0;
  bool completed = false;
  bool accepted = false;
  std::optional<p2pcash::ecash::DoubleSpendProof> proof;
  std::string error;

  const WalletCoin& spent_coin() const { return coin ? *coin : *minted; }
};

class LoadRun {
 public:
  LoadRun(const RunConfig& config, Report& report)
      : cfg_(config),
        w_(config.workload),
        report_(report),
        rng_(config.seed),
        respend_offset_(rng_() % kRespendEvery) {}
  // Strand callbacks hold `this` and point into ops_, which is destroyed
  // before rt_: stop the runtime's threads first.
  ~LoadRun() {
    if (rt_) rt_->stop();
  }
  LoadRun(const LoadRun&) = delete;
  LoadRun& operator=(const LoadRun&) = delete;

  LoadOutcome run();

 private:
  double now_ms() const { return ms_between(t0_, Clock::now()); }
  void sleep_until_ms(double t) const {
    std::this_thread::sleep_until(
        t0_ + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(t)));
  }

  void build_node();
  void mint(std::size_t count);
  void on_minted(Outcome<WalletCoin> coin);
  /// Next operation of the mix; nullptr when the coin pool is empty.
  Op* next_op(double due_ms, bool in_window);
  void post(Op& op);
  void finish(Op& op, ClientActor::PayResult result);
  void flush(std::size_t merchant);
  void flush_ticks_until(double until_ms);
  void open_loop();
  /// Keeps w_.outstanding operations in flight until `until_ms` or the
  /// coin pool runs dry.
  void closed_phase(double until_ms, bool in_window);
  void closed_loop();
  /// Waits until every posted operation has completed (or `limit_ms`).
  bool wait_all(double limit_ms);
  bool settle();
  Snapshot snapshot() const;
  template <typename F>
  auto on_strand(p2pcash::simnet::NodeId node, F fn) -> decltype(fn());

  void report_end_to_end(double build_s);
  void report_layers(const p2pcash::metrics::ResilienceCounters& rc);
  void check_gates(bool drained, bool settled, double gen_late_p99);
  void cross_check(const std::string& prom);

  const RunConfig& cfg_;
  const Workload& w_;
  Report& report_;
  std::mt19937_64 rng_;
  const std::size_t respend_offset_;
  Clock::time_point t0_ = Clock::now();

  std::unique_ptr<NodeRuntime> rt_;
  std::vector<ClientActor*> clients_;
  std::vector<MerchantId> merchants_;
  std::uint16_t obs_port_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<WalletCoin> coins_;    // guarded by mu_ while minting
  std::size_t next_coin_ = 0;       // guarded by mu_
  std::size_t minting_ = 0;         // guarded by mu_
  std::size_t mint_failures_ = 0;   // guarded by mu_
  std::size_t coins_unusable_ = 0;  // guarded by mu_
  std::size_t in_flight_ = 0;       // guarded by mu_
  std::deque<Op*> respendable_;     // guarded by mu_

  // Generator-thread state.  Ops are shared with strand callbacks through
  // stable element pointers (deque growth never moves elements).
  std::deque<Op> ops_;
  std::size_t slot_ = 0;
  std::size_t next_client_ = 0;
  std::size_t next_flush_merchant_ = 0;
  double next_flush_ms_ = 0;
  bool coins_ran_out_ = false;
  double window_start_ms_ = 0;
  double window_end_ms_ = 0;
  Snapshot at_start_, at_end_;
  std::vector<std::pair<double, double>> mint_spans_;  // ms since t0_
  double warmup_s_ = 0;
  std::optional<HostSpeed> host_;  // samples from minting to drain
};

void LoadRun::build_node() {
  NodeRuntime::Options opt;
  opt.merchants = kMerchants;
  opt.worker_threads = kWorkerThreads;
  opt.seed = cfg_.seed;
  opt.durable_stores = true;
  opt.broker.witness_n = w_.witness_n;
  opt.broker.witness_k = w_.witness_k;
  clients_.clear();
  rt_.reset();
  rt_ = std::make_unique<NodeRuntime>(
      p2pcash::group::SchnorrGroup::production_1024(), opt);
  for (std::size_t i = 0; i < kClients; ++i)
    clients_.push_back(&rt_->add_client());
  merchants_ = rt_->merchant_ids();
}

void LoadRun::on_minted(Outcome<WalletCoin> coin) {
  std::lock_guard lock(mu_);
  --minting_;
  if (!coin) {
    ++mint_failures_;
  } else {
    // A k-of-n coin whose witness slots cover fewer than k distinct
    // merchants can never gather k commitments; it is not an input.
    std::set<MerchantId> distinct;
    for (const auto& entry : coin.value().coin.witnesses)
      distinct.insert(entry.merchant);
    if (distinct.size() >= w_.witness_k)
      coins_.push_back(std::move(coin).value());
    else
      ++coins_unusable_;
  }
  cv_.notify_all();
}

void LoadRun::mint(std::size_t count) {
  const double start_ms = now_ms();
  std::unique_lock lock(mu_);
  const std::size_t target = coins_.size() + count;
  while (coins_.size() < target || minting_ > 0) {
    if (mint_failures_ > 0)
      throw std::runtime_error("withdrawal refused while minting coins");
    if (minting_ < kMintInFlight && coins_.size() + minting_ < target) {
      ++minting_;
      ClientActor* client = clients_[next_client_++ % kClients];
      lock.unlock();
      rt_->net().post(client->id(), [this, client] {
        client->withdraw(
            kDenomination,
            [this](Outcome<WalletCoin> coin) { on_minted(std::move(coin)); },
            kWithdrawDeadlineMs);
      });
      lock.lock();
    } else {
      cv_.wait(lock);
    }
  }
  mint_spans_.emplace_back(start_ms, now_ms());
}

Op* LoadRun::next_op(double due_ms, bool in_window) {
  // Draw every slot's random numbers unconditionally so one seed always
  // yields the same merchant sequence.
  const std::size_t merchant = rng_() % kMerchants;
  const std::size_t other = 1 + rng_() % (kMerchants - 1);
  const bool respend_slot = slot_++ % kRespendEvery == respend_offset_;
  Op op;
  op.due_ms = due_ms;
  op.in_window = in_window;
  op.merchant = merchant;
  {
    std::lock_guard lock(mu_);
    if (respend_slot && !respendable_.empty()) {
      const Op* first = respendable_.front();
      respendable_.pop_front();
      op.kind = Op::Kind::kRespend;
      op.coin = &first->spent_coin();
      op.merchant = (first->merchant + other) % kMerchants;
    } else if (w_.sessions) {
      op.kind = Op::Kind::kSession;
    } else if (next_coin_ < coins_.size()) {
      op.coin = &coins_[next_coin_++];
    } else {
      return nullptr;
    }
  }
  return &ops_.emplace_back(std::move(op));
}

void LoadRun::post(Op& op) {
  ClientActor* client = clients_[next_client_++ % kClients];
  const MerchantId merchant = merchants_[op.merchant];
  {
    std::lock_guard lock(mu_);
    ++in_flight_;
  }
  op.posted_ms = now_ms();
  if (op.kind == Op::Kind::kSession) {
    rt_->net().post(client->id(), [this, &op, client, merchant] {
      client->withdraw(
          kDenomination,
          [this, &op, client, merchant](Outcome<WalletCoin> coin) {
            op.pay_start_ms = now_ms();
            if (!coin) {
              ClientActor::PayResult refused;
              refused.error = "withdrawal refused: " + coin.refusal().detail;
              finish(op, std::move(refused));
              return;
            }
            op.minted = std::move(coin).value();
            client->pay(
                *op.minted, merchant,
                [this, &op](ClientActor::PayResult r) {
                  finish(op, std::move(r));
                },
                kPayTimeoutMs);
          },
          kWithdrawDeadlineMs);
    });
    return;
  }
  op.pay_start_ms = op.posted_ms;
  const WalletCoin* coin = op.coin;
  rt_->net().post(client->id(), [this, &op, client, merchant, coin] {
    client->pay(
        *coin, merchant,
        [this, &op](ClientActor::PayResult r) { finish(op, std::move(r)); },
        kPayTimeoutMs);
  });
}

void LoadRun::finish(Op& op, ClientActor::PayResult result) {
  op.done_ms = now_ms();
  op.accepted = result.accepted;
  if (result.double_spend_proof) op.proof = std::move(result.double_spend_proof);
  if (result.error) op.error = *result.error;
  std::lock_guard lock(mu_);
  op.completed = true;
  --in_flight_;
  if (op.accepted && op.kind != Op::Kind::kRespend) respendable_.push_back(&op);
  cv_.notify_all();
}

void LoadRun::flush(std::size_t merchant) {
  const MerchantId& id = merchants_[merchant];
  auto* actor = &rt_->merchant_actor(id);
  rt_->net().post(rt_->merchant_node(id), [actor] { actor->flush_deposits(); });
}

void LoadRun::flush_ticks_until(double until_ms) {
  if (w_.flush_every_ms <= 0) return;
  while (next_flush_ms_ <= until_ms) {
    sleep_until_ms(next_flush_ms_);
    flush(next_flush_merchant_++ % kMerchants);
    next_flush_ms_ += w_.flush_every_ms;
  }
}

void LoadRun::open_loop() {
  const double period_ms = 1000.0 / w_.rate;
  const double base = now_ms();
  window_start_ms_ = base + cfg_.warmup_s * 1000.0;
  window_end_ms_ = window_start_ms_ + cfg_.seconds * 1000.0;
  next_flush_ms_ = base + w_.flush_every_ms;
  const auto slots = static_cast<std::size_t>(
      std::ceil((window_end_ms_ - base) / period_ms));
  bool window_open = false;
  for (std::size_t i = 0; i < slots; ++i) {
    const double due = base + static_cast<double>(i) * period_ms;
    flush_ticks_until(due);
    if (!window_open && due >= window_start_ms_) {
      sleep_until_ms(window_start_ms_);
      warmup_s_ = (now_ms() - base) / 1000.0;
      at_start_ = snapshot();
      window_open = true;
    }
    sleep_until_ms(due);
    Op* op = next_op(due, window_open);
    if (op == nullptr) {
      coins_ran_out_ = true;
      break;
    }
    post(*op);
  }
  flush_ticks_until(window_end_ms_);
  sleep_until_ms(window_end_ms_);
  at_end_ = snapshot();
}

void LoadRun::closed_phase(double until_ms, bool in_window) {
  std::unique_lock lock(mu_);
  while (now_ms() < until_ms) {
    if (in_flight_ >= w_.outstanding) {
      cv_.wait_until(lock, t0_ + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::milli>(
                                         until_ms)));
      continue;
    }
    lock.unlock();
    Op* op = next_op(now_ms(), in_window);
    if (op == nullptr) {
      if (in_window) coins_ran_out_ = true;
      return;
    }
    post(*op);
    lock.lock();
  }
}

void LoadRun::closed_loop() {
  // The warm-up runs on a first batch of coins and measures the payment
  // rate; the timed window then gets coins for that rate plus a margin,
  // minted before it starts so issuance never competes with payments.  A
  // shared host can speed up by half between warm-up and window, so the
  // rate is first taken to the fastest host speed seen.
  mint(static_cast<std::size_t>(kClosedWarmupCoinsPerS * cfg_.warmup_s));
  const double warm_start = now_ms();
  closed_phase(warm_start + cfg_.warmup_s * 1000.0, false);
  const double warm_end = now_ms();
  if (!wait_all(30'000))
    throw std::runtime_error("warm-up payments did not complete");
  warmup_s_ = (warm_end - warm_start) / 1000.0;
  const double half = warm_start + (warm_end - warm_start) / 2;
  std::size_t late_half = 0;
  for (const Op& op : ops_)
    if (op.done_ms >= half && op.done_ms <= warm_end) ++late_half;
  const double rate = static_cast<double>(late_half) /
                      std::max(1e-3, (warm_end - half) / 1000.0) *
                      host_->median_us(half, warm_end) / kFastestHostUs;
  std::size_t left;
  {
    std::lock_guard lock(mu_);
    left = coins_.size() - next_coin_;
  }
  const auto need = static_cast<std::size_t>(
      rate * cfg_.seconds * kClosedMintMargin +
      static_cast<double>(w_.outstanding));
  if (need > left) mint(need - left);

  window_start_ms_ = now_ms();
  window_end_ms_ = window_start_ms_ + cfg_.seconds * 1000.0;
  at_start_ = snapshot();
  closed_phase(window_end_ms_, true);
  sleep_until_ms(window_end_ms_);
  at_end_ = snapshot();
}

bool LoadRun::wait_all(double limit_ms) {
  std::unique_lock lock(mu_);
  return cv_.wait_for(lock,
                      std::chrono::duration<double, std::milli>(limit_ms),
                      [this] { return in_flight_ == 0; });
}

template <typename F>
auto LoadRun::on_strand(p2pcash::simnet::NodeId node, F fn) -> decltype(fn()) {
  std::promise<decltype(fn())> promise;
  auto future = promise.get_future();
  rt_->net().post(node, [&promise, &fn] { promise.set_value(fn()); });
  return future.get();
}

bool LoadRun::settle() {
  // Merchant by merchant, so the broker's backlog stays far below the
  // deposit retry timeout and every deposit is submitted exactly once.
  const double limit = now_ms() + 90'000;
  for (std::size_t m = 0; m < kMerchants; ++m) {
    const MerchantId& id = merchants_[m];
    auto* actor = &rt_->merchant_actor(id);
    for (;;) {
      flush(m);
      const std::size_t left = on_strand(rt_->merchant_node(id), [actor] {
        return actor->deposits_outstanding() +
               actor->merchant().deposit_queue_size();
      });
      if (left == 0) break;
      if (now_ms() > limit) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return true;
}

Snapshot LoadRun::snapshot() const {
  Snapshot s;
  s.cpu_ms = process_cpu_ms();
  for (const char* name : kWindowHistograms) {
    if (const auto* h = rt_->metrics().find_histogram(name))
      s.hist[name] = {h->count(), h->sum()};
  }
  s.net = rt_->net().stats();
  s.spans = rt_->trace_sink().span_count();
  return s;
}

LoadOutcome LoadRun::run() {
  // Only the last build is started, so no runtime is stopped while it may
  // hold work: TcpNet::stop() hands a strand's leftover batch to the worker
  // pool it is destroying.
  std::vector<double> builds;
  for (int i = 0; i < kNodeBuilds; ++i) {
    const auto t = Clock::now();
    build_node();
    builds.push_back(ms_between(t, Clock::now()) / 1000.0);
  }
  const auto start = Clock::now();
  rt_->start();
  const double build_s =
      percentile(builds, 50) + ms_between(start, Clock::now()) / 1000.0;
  obs_port_ = rt_->start_obs_server(0);
  host_.emplace(t0_);

  if (w_.closed_loop) {
    closed_loop();
  } else {
    if (!w_.sessions) {
      // Every honest slot spends a pre-minted coin; a re-spend slot that
      // finds no accepted coin yet (only at the very start) spends one of
      // the spares instead.
      const double slots = w_.rate * (cfg_.warmup_s + cfg_.seconds);
      mint(static_cast<std::size_t>(std::ceil(
          slots * (1.0 - 1.0 / static_cast<double>(kRespendEvery)))) +
           kRespendEvery);
    }
    open_loop();
  }
  const bool drained = wait_all(kMaxOpLatencyMs + 10'000);
  host_->stop();
  if (drained) cross_check(scrape(obs_port_, "/metrics"));
  const auto settle_start = Clock::now();
  const bool settled = drained && settle();
  const std::uint64_t deposited = rt_->broker().coins_deposited();
  rt_->stop();
  report_.add("bench.settle_s", ms_between(settle_start, Clock::now()) / 1000,
              "s");

  std::vector<double> late;
  for (const Op& op : ops_) late.push_back(op.posted_ms - op.due_ms);
  const double gen_late_p99 = percentile(late, 99);
  report_end_to_end(build_s);
  report_layers(rt_->resilience_totals());
  report_.add("bench.gen_late_p99_ms", gen_late_p99, "ms", late.size());

  std::size_t accepted = 0;
  for (const Op& op : ops_)
    if (op.completed && op.accepted) ++accepted;
  check_gates(drained, settled, gen_late_p99);
  report_.gate("deposits_exactly_once", settled && deposited == accepted,
               std::to_string(deposited) + " deposited, " +
                   std::to_string(accepted) + " payments accepted");

  LoadOutcome out;
  for (const Op& op : ops_) {
    if (!op.in_window) continue;
    ++out.attempted;
    const bool ok = op.kind == Op::Kind::kRespend
                        ? op.completed && !op.accepted && op.proof.has_value()
                        : op.completed && op.accepted;
    if (!ok) ++out.failed;
  }
  report_.add("fail_frac",
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 0.0,
              "ratio");
  return out;
}

void LoadRun::report_end_to_end(double build_s) {
  // Times at nominal host speed (host_speed.h); each is also printed as
  // measured, with a _raw suffix.
  struct Times {
    std::vector<double> at_nominal, raw;
    void add(const HostSpeed& host, double from_ms, double to_ms) {
      raw.push_back(to_ms - from_ms);
      at_nominal.push_back(raw.back() * host.scale(from_ms, to_ms));
    }
  } lat, ds, withdraw, pay;
  std::size_t accepted_in_window = 0, in_window = 0;
  for (const Op& o : ops_) {
    if (!o.in_window || !o.completed) continue;
    ++in_window;
    if (o.kind == Op::Kind::kRespend) {
      if (o.proof) ds.add(*host_, o.due_ms, o.done_ms);
      continue;
    }
    if (!o.accepted) continue;
    lat.add(*host_, o.due_ms, o.done_ms);
    if (o.kind == Op::Kind::kSession) {
      withdraw.add(*host_, o.due_ms, o.pay_start_ms);
      pay.add(*host_, o.pay_start_ms, o.done_ms);
    }
    // Closed loop: throughput counts completions inside the window.
    if (!w_.closed_loop || o.done_ms < window_end_ms_) ++accepted_in_window;
  }
  auto add_pct = [this](const std::string& name, const Times& t, double pct) {
    report_.add(name + "_ms", percentile(t.at_nominal, pct), "ms",
                t.at_nominal.size());
    report_.add(name + "_raw_ms", percentile(t.raw, pct), "ms", t.raw.size());
  };
  add_pct("op_p50", lat, 50);
  add_pct("op_p98", lat, 98);
  add_pct("op_p99", lat, 99);
  add_pct("ds_stop_p50", ds, 50);
  if (w_.sessions) {
    add_pct("withdraw_p50", withdraw, 50);
    add_pct("withdraw_p98", withdraw, 98);
    add_pct("pay_p50", pay, 50);
    add_pct("pay_p98", pay, 98);
  }

  const double cpu_ms = (at_end_.cpu_ms - at_start_.cpu_ms) /
                        static_cast<double>(std::max<std::size_t>(1, in_window));
  report_.add("cpu_ms_per_op",
              cpu_ms * HostSpeed::kNominalUs /
                  host_->mean_us(window_start_ms_, window_end_ms_),
              "ms");
  report_.add("cpu_ms_per_op_raw", cpu_ms, "ms");
  report_.add("rss_mb", peak_rss_mb(), "MB");

  // Node construction is milliseconds and the warm-up a fixed duration;
  // minting is CPU-bound, so it alone is taken to nominal speed.
  double mint_s = 0, mint_raw_s = 0;
  for (const auto& [from, to] : mint_spans_) {
    mint_raw_s += (to - from) / 1000.0;
    mint_s += (to - from) / 1000.0 * host_->scale(from, to);
  }
  report_.add("setup_s", build_s + mint_s + warmup_s_, "s");
  report_.add("setup_raw_s", build_s + mint_raw_s + warmup_s_, "s");
  report_.add("setup.build_s", build_s, "s");
  report_.add("setup.mint_s", mint_s, "s");
  report_.add("setup.warmup_s", warmup_s_, "s");

  const double window_s = (window_end_ms_ - window_start_ms_) / 1000.0;
  report_.add("tput_ops_s", static_cast<double>(accepted_in_window) / window_s,
              "1/s");
  report_.add("host.ref_us", host_->median_us(window_start_ms_, window_end_ms_),
              "us");
}

void LoadRun::report_layers(const p2pcash::metrics::ResilienceCounters& rc) {
  std::size_t ops = 0, window_ops = 0;
  for (const Op& op : ops_) {
    ++ops;
    if (op.in_window) ++window_ops;
  }
  const double per_op = 1.0 / static_cast<double>(std::max<std::size_t>(1, window_ops));
  const double window_ms = window_end_ms_ - window_start_ms_;
  auto hist = [this](const char* name) {
    return window_mean(at_start_.hist[name], at_end_.hist[name]);
  };
  const auto& a = at_start_.net;
  const auto& b = at_end_.net;
  report_.add("transport.msgs_per_op",
              static_cast<double>(b.messages_sent - a.messages_sent) * per_op,
              "count");
  report_.add("transport.bytes_per_op",
              static_cast<double>(b.bytes_sent - a.bytes_sent) * per_op,
              "bytes");
  report_.add("transport.io_busy_frac",
              (at_end_.hist["transport_io_loop_busy_ms"].sum -
               at_start_.hist["transport_io_loop_busy_ms"].sum) /
                  window_ms,
              "ratio");
  report_.add("transport.strand_batch_mean", hist("transport_strand_batch"),
              "tasks");
  report_.add("transport.timer_delay_mean_ms",
              hist("transport_timer_delay_ms"), "ms");
  report_.add("transport.backpressure_drops",
              static_cast<double>(b.backpressure_drops), "count");
  report_.add("transport.reads_paused", static_cast<double>(b.reads_paused),
              "count");
  report_.add("verify.queue_delay_mean_ms",
              hist("transport_pool_queue_delay_ms"), "ms");
  report_.add("verify.drain_batch_mean", hist("transport_pool_drain_batch"),
              "tasks");
  report_.add("store.commit_batch_mean", hist("store_commit_batch_records"),
              "records");
  report_.add("obs.spans_per_op",
              static_cast<double>(at_end_.spans - at_start_.spans) * per_op,
              "count");

  const double all_ops = static_cast<double>(std::max<std::size_t>(1, ops));
  report_.add("actors.retries_per_op", static_cast<double>(rc.retries) / all_ops,
              "count");
  report_.add("actors.timeouts", static_cast<double>(rc.timeouts), "count");
  report_.add("actors.failovers", static_cast<double>(rc.failovers), "count");
  report_.add("actors.useful_ratio",
              all_ops / (all_ops + static_cast<double>(rc.retries)), "ratio");
  // Whole-run span means: deposits only happen in the final settle on the
  // pay workloads, so a window difference would be empty there.
  for (const char* phase :
       {"withdraw", "payment_commit", "witness_sign", "payment", "deposit"}) {
    const auto* h =
        rt_->metrics().find_histogram("span_" + std::string(phase) + "_ms");
    report_.add("actors.span." + std::string(phase) + "_mean_ms",
                h ? h->mean() : 0.0, "ms");
  }
  report_.add("transport.decode_errors", static_cast<double>(b.decode_errors),
              "count");
}

void LoadRun::check_gates(bool drained, bool settled, double gen_late_p99) {
  std::size_t posted = 0, completed = 0, double_accepted = 0, respends = 0,
              proved = 0, late = 0, refused = 0;
  std::string first_refusal;
  std::map<p2pcash::ecash::Hash256, int> accepted_per_coin;
  const auto& grp = p2pcash::group::SchnorrGroup::production_1024();
  for (const Op& op : ops_) {
    ++posted;
    if (!op.completed) continue;
    ++completed;
    if (op.done_ms - op.due_ms > kMaxOpLatencyMs) ++late;
    if (op.kind != Op::Kind::kRespend && !op.accepted && refused++ == 0)
      first_refusal = op.error;
    const auto hash = op.kind == Op::Kind::kSession && !op.minted
                          ? p2pcash::ecash::Hash256{}
                          : op.spent_coin().coin.bare.coin_hash();
    if (op.accepted && ++accepted_per_coin[hash] > 1) ++double_accepted;
    if (op.kind != Op::Kind::kRespend) continue;
    ++respends;
    if (!op.accepted && op.proof && op.proof->coin_hash == hash &&
        op.proof->verify(grp))
      ++proved;
  }
  report_.gate("all_ops_completed", drained && completed == posted,
               std::to_string(completed) + "/" + std::to_string(posted));
  report_.gate("honest_ops_accepted", refused == 0,
               std::to_string(refused) + " refused" +
                   (refused ? ", first: " + first_refusal : ""));
  report_.gate("no_coin_accepted_twice", double_accepted == 0,
               std::to_string(double_accepted) + " coins accepted twice");
  report_.gate("respends_refused_with_proof", respends > 0 && proved == respends,
               std::to_string(proved) + "/" + std::to_string(respends) +
                   " re-spends refused with a valid proof");
  report_.gate("ops_within_5s", late == 0,
               std::to_string(late) + " operations later than 5 s");
  // Reported, not gated: on a shared host the generator thread itself is
  // sometimes descheduled for ~10 ms, which says nothing about the program,
  // and open-loop latency runs from due times, so the lateness is charged.
  if (gen_late_p99 > kMaxGenLateP99Ms) {
    const std::string line = "WARNING: generator late p99 " +
                             std::to_string(gen_late_p99) + " ms, over 5 ms";
    std::printf("%s\n", line.c_str());
    report_.text(line);
  }
  report_.gate("decode_errors_zero", at_end_.net.decode_errors == 0 &&
                                          rt_->net().stats().decode_errors == 0,
               "");
  report_.gate("coins_cover_window", !coins_ran_out_, "");
  report_.gate("settled", settled, "final deposit flush");
  report_.gate("host_speed_sampled", host_->complete(), "");
  std::lock_guard lock(mu_);
  report_.add("bench.coins_unusable", static_cast<double>(coins_unusable_),
              "count");
}

void LoadRun::cross_check(const std::string& prom) {
  // The operator's view of the same payments: the runtime's span_payment
  // histogram as served on /metrics, against the bench's own clock.
  std::vector<double> pay_ms;
  for (const Op& op : ops_)
    if (op.completed && (op.kind != Op::Kind::kSession || op.minted))
      pay_ms.push_back(op.done_ms - op.pay_start_ms);
  const double span_mean = prom_value(prom, "span_payment_ms_sum") /
                           prom_value(prom, "span_payment_ms_count");
  const double ratio = mean(pay_ms) / span_mean;
  const bool ok = std::isfinite(ratio) &&
                  std::fabs(ratio - 1.0) <= kCrossCheckTolerance;
  char line[256];
  std::snprintf(line, sizeof line,
                "operator cross-check: bench pay mean %.3f ms / /metrics "
                "span_payment mean %.3f ms = %.3f%s",
                mean(pay_ms), span_mean, ratio,
                ok ? "" : "  WARNING: differs by more than 15%");
  std::printf("%s\n", line);
  report_.text(line);
  report_.add("check.pay_mean_ratio", std::isfinite(ratio) ? ratio : 0.0,
              "ratio");
}

}  // namespace

LoadOutcome run_load(const RunConfig& config, Report& report) {
  LoadRun run(config, report);
  return run.run();
}

}  // namespace p2pcash_bench
