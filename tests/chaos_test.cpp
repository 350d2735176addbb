// chaos_test.cpp — seeded fault schedules through the full economy.
//
// Each run builds a SimWorld, withdraws coins in a calm window, then lets a
// seed-derived FaultPlan crash witnesses (tearing their logs at a seed-chosen
// unsynced byte, then recovering by reopening them), corrupt
// links and split the network while payments — including a concurrent
// double-spend attempt — run with the resilient RPC pipeline.  Invariants
// checked after every schedule:
//
//   SAFETY   no coin is accepted twice; no witness signs two transcripts
//            (broker.witness_faults() stays empty, so no honest merchant
//            can lose money — every delivered service is credited exactly
//            once at deposit time);
//   CLEAN    every payment callback resolves, either accepted or with a
//            diagnostic;
//   LIVENESS after all faults clear, a fresh withdrawal and payment go
//            through, and every queued deposit reaches the broker;
//   TRACED   every resilience counter equals the number of its trace
//            events.
//
// A violated invariant prints the seed plus the full fault schedule and
// appends both to $P2PCASH_CHAOS_ARTIFACT (default chaos_failures.txt) —
// the seed alone reproduces the run.
//
// Suites: ChaosFast* are the deterministic directed scenarios plus a small
// seed sweep (ctest label "chaos"); ChaosSweep covers 100 seeds (labels
// "chaos;slow").

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "actors/world.h"
#include "obs/trace.h"
#include "overlay/chord.h"

namespace p2pcash::actors {
namespace {

using simnet::SimTime;

struct ChaosRun {
  std::uint64_t seed = 0;
  std::vector<std::string> plan_log;
  std::vector<std::string> violations;
  metrics::ResilienceCounters totals;
  /// JSONL trace of the offending payments (meta record + spans/events),
  /// captured only when the run violated an invariant.
  std::string trace_jsonl;
};

void report_failure(const ChaosRun& run) {
  std::string text = "chaos seed " + std::to_string(run.seed) + " violated:\n";
  for (const auto& v : run.violations) text += "  " + v + "\n";
  text += "fault schedule:\n";
  for (const auto& line : run.plan_log) text += "  " + line + "\n";
  text += "counters: " + run.totals.to_string() + "\n";
  // Single-threaded artifact path at test teardown; no setenv anywhere.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("P2PCASH_CHAOS_ARTIFACT");
  const std::string path = env ? env : "chaos_failures.txt";
  std::ofstream out(path, std::ios::app);
  out << text << "\n";
  if (!run.trace_jsonl.empty()) {
    // The payment's causal history rides along with the schedule so the
    // seed can be diagnosed without re-running it.
    const std::string trace_path = path + ".trace.jsonl";
    std::ofstream trace_out(trace_path, std::ios::app);
    trace_out << run.trace_jsonl;
    text += "trace: " + trace_path + "\n";
  }
  ADD_FAILURE() << text
                << "reproduce: run_chaos_schedule(" << run.seed << ")";
}

/// One full seeded chaos schedule; returns the observations instead of
/// asserting so the caller can attach the seed + schedule to any failure.
ChaosRun run_chaos_schedule(std::uint64_t seed) {
  ChaosRun run;
  run.seed = seed;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) run.violations.push_back(what);
  };

  auto& grp = group::SchnorrGroup::test_256();
  SimWorld::Options opt;
  opt.merchants = 4 + seed % 3;
  opt.seed = seed * 7919 + 1;
  opt.cost = simnet::free_cost();
  opt.broker.witness_n = static_cast<std::uint8_t>(1 + seed % 3);
  opt.broker.witness_k = static_cast<std::uint8_t>(
      opt.broker.witness_n == 3 ? 2 : opt.broker.witness_n);
  opt.trace = true;  // every payment's causal history, dumped on violation
  SimWorld world(grp, opt);

  // Three spender clients plus an accomplice that replays client 0's coin
  // (a coin is a bearer instrument: whoever holds the secrets can spend).
  std::vector<ClientActor*> clients;
  for (int i = 0; i < 3; ++i) clients.push_back(&world.add_client());
  ClientActor& accomplice = world.add_client();

  // Calm window: one coin per client, no faults yet, no retry timers.
  std::vector<ecash::WalletCoin> coins;
  for (ClientActor* client : clients) {
    std::optional<ecash::WalletCoin> coin;
    client->withdraw(100, [&](ecash::Outcome<ecash::WalletCoin> c) {
      if (c.ok()) coin = std::move(c).value();
    });
    world.sim().run();
    if (!coin) {
      run.violations.push_back("calm-window withdrawal failed");
      return run;
    }
    coins.push_back(std::move(*coin));
  }

  // Seed-derived fault schedule (times are relative to now).
  simnet::FaultPlan::ChaosOptions chaos;
  chaos.start_ms = 2'000;
  chaos.horizon_ms = 40'000;
  for (const auto& id : world.merchant_ids())
    chaos.crashable.push_back(world.merchant_node(id));
  if (seed % 4 == 0) chaos.crashable.push_back(world.directory().broker);
  chaos.nodes = world.all_nodes();
  chaos.crashes = 1 + seed % 3;
  chaos.link_faults = 3 + seed % 4;
  chaos.partitions = seed % 2;
  crypto::ChaChaRng chaos_rng(seed ^ 0xC4A05u);
  world.faults().randomize(chaos, chaos_rng);
  run.plan_log = world.faults().log();

  // Payments fired into the fault window; coin 0 is double-spent.
  const auto ids = world.merchant_ids();
  struct PayOutcome {
    bool done = false;
    bool accepted = false;
    std::string error;
    obs::TraceId trace_id = 0;
  };
  std::vector<PayOutcome> outcomes(clients.size() + 1);
  const SimTime pay_deadline = 20'000;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    world.sim().schedule(2'000 + 1'500 * static_cast<SimTime>(i), [&, i] {
      clients[i]->pay(
          coins[i], ids[i % ids.size()],
          [&outcomes, i](ClientActor::PayResult r) {
            outcomes[i].done = true;
            outcomes[i].accepted = r.accepted;
            outcomes[i].trace_id = r.trace_id;
            if (r.error) outcomes[i].error = *r.error;
          },
          pay_deadline);
    });
  }
  const std::size_t last = clients.size();
  world.sim().schedule(2'050, [&] {
    accomplice.pay(
        coins[0], ids[1 % ids.size()],
        [&outcomes, last](ClientActor::PayResult r) {
          outcomes[last].done = true;
          outcomes[last].accepted = r.accepted;
          outcomes[last].trace_id = r.trace_id;
          if (r.error) outcomes[last].error = *r.error;
        },
        pay_deadline);
  });
  world.sim().run();

  // CLEAN: every payment resolved, accepted or with a diagnostic.  A
  // payment implicated in a violation has its trace id remembered so the
  // failure artifact can carry the causal history.
  std::vector<obs::TraceId> offending;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const std::size_t before = run.violations.size();
    check(outcomes[i].done,
          "payment " + std::to_string(i) + " never resolved");
    if (outcomes[i].done && !outcomes[i].accepted)
      check(!outcomes[i].error.empty(),
            "payment " + std::to_string(i) + " failed without diagnostic");
    if (run.violations.size() != before && outcomes[i].trace_id)
      offending.push_back(outcomes[i].trace_id);
  }
  // SAFETY: coin 0 was spent from two wallets at two merchants — at most
  // one may have been accepted.
  if (outcomes[0].accepted && outcomes[last].accepted) {
    run.violations.push_back("double spend: coin 0 accepted at two merchants");
    for (std::size_t i : {std::size_t{0}, last})
      if (outcomes[i].trace_id) offending.push_back(outcomes[i].trace_id);
  }

  // LIVENESS: all faults are cleared/healed by the horizon; a fresh client
  // must be able to withdraw and pay.
  ClientActor& late_client = world.add_client();
  std::optional<ecash::WalletCoin> fresh;
  late_client.withdraw(100,
                       [&](ecash::Outcome<ecash::WalletCoin> c) {
                         if (c.ok()) fresh = std::move(c).value();
                       },
                       /*deadline_ms=*/20'000);
  world.sim().run();
  check(fresh.has_value(), "post-heal withdrawal failed");
  if (fresh) {
    std::optional<ClientActor::PayResult> result;
    late_client.pay(*fresh, ids.back(),
                    [&](ClientActor::PayResult r) { result = std::move(r); },
                    /*timeout_ms=*/20'000);
    world.sim().run();
    check(result.has_value() && result->accepted,
          "post-heal payment failed: " +
              (result && result->error ? *result->error : "no result"));
    if (result && !result->accepted && result->trace_id)
      offending.push_back(result->trace_id);
  }

  // Deposits: every merchant flushes; the broker must credit each serviced
  // coin exactly once (kAlreadyDeposited retries are acks, not credits).
  for (const auto& id : world.merchant_ids())
    world.merchant_actor(id).flush_deposits();
  world.sim().run();
  std::uint64_t services = 0;
  for (const auto& id : world.merchant_ids()) {
    services += world.merchant(id).services_delivered();
    check(world.merchant(id).deposit_queue_size() == 0,
          "deposit queue not drained at " + id);
    check(world.merchant_actor(id).deposits_outstanding() == 0,
          "deposit unacknowledged at " + id);
  }
  check(world.broker().coins_deposited() == services,
        "credited deposits != services delivered (merchant lost money)");
  check(world.broker().witness_faults().empty(),
        "a witness signed two transcripts for one coin");

  // Every resilience event is counted and traced by the same note(), so
  // each counter equals the number of its trace events.  A deposit's spent
  // retry budget counts as a timeout ("rpc.exhausted" on the deposit
  // span); a client's spent per-witness budget is only annotated.
  run.totals = world.resilience_totals();
  const std::string jsonl = world.trace_sink().to_jsonl();
  auto events = [&jsonl](const std::string& name,
                         const std::string& detail_prefix = "") {
    const std::string needle =
        "\"name\":\"" + name + "\",\"detail\":\"" + detail_prefix;
    std::uint64_t n = 0;
    for (auto at = jsonl.find(needle); at != std::string::npos;
         at = jsonl.find(needle, at + 1))
      ++n;
    return n;
  };
  const auto& rc = run.totals;
  check(world.trace_sink().dropped() == 0, "trace ring dropped records");
  check(rc.retries == events("rpc.retry") &&
            rc.failovers == events("rpc.failover") &&
            rc.duplicates_suppressed == events("dup.suppressed") &&
            rc.breaker_trips == events("breaker.trip") &&
            rc.timeouts ==
                events("rpc.timeout") + events("rpc.exhausted", "deposit") &&
            rc.late_replies_ignored == events("late_reply.ignored"),
        "resilience counters disagree with their trace events");
  if (!run.violations.empty()) {
    // Offending payments' traces if any were implicated directly; the
    // whole retained window for world-level violations (lost deposit,
    // undrained queue) where no single payment is to blame.
    std::string traces;
    for (obs::TraceId t : offending) traces += world.trace_sink().trace_jsonl(t);
    if (traces.empty()) traces = world.trace_sink().to_jsonl();
    run.trace_jsonl = "{\"kind\":\"meta\",\"seed\":" + std::to_string(seed) +
                      ",\"source\":\"chaos_test\",\"offending_traces\":" +
                      std::to_string(offending.size()) + "}\n" + traces;
  }
  return run;
}

// ---------------------------------------------------------------------------
// Directed deterministic scenarios (fast subset, ctest label "chaos")
// ---------------------------------------------------------------------------

SimWorld::Options directed_options(std::uint8_t witness_n,
                                   std::uint8_t witness_k) {
  SimWorld::Options opt;
  opt.merchants = 5;
  opt.seed = 4242;
  opt.cost = simnet::free_cost();
  opt.broker.witness_n = witness_n;
  opt.broker.witness_k = witness_k;
  return opt;
}

ecash::WalletCoin chaos_withdraw(SimWorld& world, ClientActor& client) {
  std::optional<ecash::WalletCoin> coin;
  client.withdraw(100, [&](ecash::Outcome<ecash::WalletCoin> c) {
    ASSERT_TRUE(c.ok()) << c.refusal().detail;
    coin = std::move(c).value();
  });
  world.sim().run();
  EXPECT_TRUE(coin.has_value());
  return std::move(*coin);
}

// The PR's acceptance scenario: 2% ambient loss plus the coin's primary
// witness crashing as the payment starts.  The payment must still succeed,
// via retry and failover to the next witness in chord order, with the
// counters showing what happened.
TEST(ChaosFast, LossyWanWithWitnessCrashStillSucceeds) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, directed_options(/*witness_n=*/2, /*witness_k=*/1));
  auto& client = world.add_client();
  auto coin = chaos_withdraw(world, client);
  world.net().set_drop_rate(0.02);

  // Crash the primary witness just before the commit request can reach it;
  // it recovers 15 s later.  "Primary" means first in the client's engage
  // order: a chord successor-list walk from the coin's witness point.
  const bn::BigInt key = coin.coin.bare.witness_point(0);
  std::vector<bn::BigInt> points;
  for (const auto& entry : coin.coin.witnesses) points.push_back(entry.lo);
  const auto order = overlay::failover_order(key, points);
  const auto primary = coin.coin.witnesses[order.front()].merchant;
  world.crash_merchant(primary, /*at=*/10, /*restart_at=*/15'000);
  ecash::MerchantId target;
  for (const auto& id : world.merchant_ids()) {
    bool is_witness = false;
    for (const auto& w : coin.coin.witnesses)
      if (w.merchant == id) is_witness = true;
    if (!is_witness) {
      target = id;
      break;
    }
  }
  std::optional<ClientActor::PayResult> result;
  world.sim().schedule(50, [&] {
    client.pay(coin, target,
               [&](ClientActor::PayResult r) { result = std::move(r); },
               /*timeout_ms=*/30'000);
  });
  world.sim().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->accepted) << (result->error ? *result->error : "");
  // The payment survived by engaging the replica witness.
  const auto& counters = client.resilience();
  EXPECT_GE(counters.failovers, 1u);
  EXPECT_EQ(world.merchant(target).services_delivered(), 1u);
}

// Witness crashes after committing but before countersigning: recovery
// must bring the committed commitment back from the log so the retried
// transcript completes instead of double-granting or stalling.
TEST(ChaosFast, WitnessRestartMidSignPreservesCommitment) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, directed_options(1, 1));
  auto& client = world.add_client();
  auto coin = chaos_withdraw(world, client);
  const auto witness_id = coin.coin.witnesses[0].merchant;
  ecash::MerchantId target;
  for (const auto& id : world.merchant_ids()) {
    if (id != witness_id) {
      target = id;
      break;
    }
  }
  // Commit round completes in ~100 ms; crash at 150 ms hits the window
  // between the commitment grant and the merchant's sign request.
  std::optional<ClientActor::PayResult> result;
  client.pay(coin, target,
             [&](ClientActor::PayResult r) { result = std::move(r); },
             /*timeout_ms=*/30'000);
  world.crash_merchant(witness_id, /*at=*/150, /*restart_at=*/5'000);
  world.sim().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->accepted) << (result->error ? *result->error : "");
  // The client had to retransmit the transcript; the merchant re-drove the
  // witness idempotently.
  EXPECT_GE(client.resilience().retries +
                world.merchant_actor(target).resilience().duplicates_suppressed,
            1u);
}

// The hard guarantee across a crash: a coin spent before the witness went
// down is still unspendable after it comes back.
TEST(ChaosFast, DoubleSpendBlockedAcrossWitnessCrash) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, directed_options(1, 1));
  auto& honest = world.add_client();
  auto& thief = world.add_client();
  auto coin = chaos_withdraw(world, honest);
  const auto witness_id = coin.coin.witnesses[0].merchant;
  auto ids = world.merchant_ids();
  std::optional<ClientActor::PayResult> first;
  honest.pay(coin, ids[0],
             [&](ClientActor::PayResult r) { first = std::move(r); });
  world.sim().run();
  ASSERT_TRUE(first && first->accepted);

  // Crash and recover the witness, then replay the spent coin elsewhere.
  world.crash_merchant(witness_id, /*at=*/100, /*restart_at=*/2'000);
  world.sim().run();
  std::optional<ClientActor::PayResult> second;
  thief.pay(coin, ids[1],
            [&](ClientActor::PayResult r) { second = std::move(r); },
            /*timeout_ms=*/15'000);
  world.sim().run();
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->accepted);
  // The restored witness answers from its durable spent record: either the
  // self-incriminating proof or a commitment refusal, never a grant.
  if (second->double_spend_proof) {
    EXPECT_TRUE(second->double_spend_proof->verify(grp));
  } else {
    ASSERT_TRUE(second->error.has_value());
  }
}

// The crash cuts the victim's log at a seed-chosen unsynced byte
// (kill-at-any-byte) and recovery must truncate the torn tail and replay.
// The hard guarantee: a coin spent before the crash stays unspendable
// after it, because the spend is in the log, not just in memory.
TEST(ChaosFast, DurableWitnessCrashStillBlocksDoubleSpend) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, directed_options(1, 1));
  auto& honest = world.add_client();
  auto& thief = world.add_client();
  auto coin = chaos_withdraw(world, honest);
  const auto witness_id = coin.coin.witnesses[0].merchant;
  auto ids = world.merchant_ids();
  std::optional<ClientActor::PayResult> first;
  honest.pay(coin, ids[0],
             [&](ClientActor::PayResult r) { first = std::move(r); });
  world.sim().run();
  ASSERT_TRUE(first && first->accepted);
  // The committed spend is on the witness's disk, not just in memory.
  EXPECT_FALSE(world.store_vfs()
                   .contents(ecash::Deployment::witness_log_name(witness_id))
                   .empty());

  world.crash_merchant(witness_id, /*at=*/100, /*restart_at=*/2'000);
  world.sim().run();
  std::optional<ClientActor::PayResult> second;
  thief.pay(coin, ids[1],
            [&](ClientActor::PayResult r) { second = std::move(r); },
            /*timeout_ms=*/15'000);
  world.sim().run();
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->accepted);
  if (second->double_spend_proof) {
    EXPECT_TRUE(second->double_spend_proof->verify(grp));
  } else {
    ASSERT_TRUE(second->error.has_value());
  }
}

// Durable mid-sign restart: the crash tears the log mid-record (whatever
// byte the seed picks), recovery truncates to the last commit, and the
// retried transcript still completes exactly once.
TEST(ChaosFast, DurableWitnessRestartMidSignStillCompletes) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, directed_options(1, 1));
  auto& client = world.add_client();
  auto coin = chaos_withdraw(world, client);
  const auto witness_id = coin.coin.witnesses[0].merchant;
  ecash::MerchantId target;
  for (const auto& id : world.merchant_ids()) {
    if (id != witness_id) {
      target = id;
      break;
    }
  }
  std::optional<ClientActor::PayResult> result;
  client.pay(coin, target,
             [&](ClientActor::PayResult r) { result = std::move(r); },
             /*timeout_ms=*/30'000);
  world.crash_merchant(witness_id, /*at=*/150, /*restart_at=*/5'000);
  world.sim().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->accepted) << (result->error ? *result->error : "");
  EXPECT_GE(client.resilience().retries +
                world.merchant_actor(target).resilience().duplicates_suppressed,
            1u);
}

// A partition separating the client from everyone else must only delay the
// payment: retries carry it once the partition heals.
TEST(ChaosFast, PartitionHealRestoresLiveness) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, directed_options(1, 1));
  auto& client = world.add_client();
  auto coin = chaos_withdraw(world, client);
  const auto witness_id = coin.coin.witnesses[0].merchant;
  ecash::MerchantId target;
  for (const auto& id : world.merchant_ids()) {
    if (id != witness_id) {
      target = id;
      break;
    }
  }
  std::vector<simnet::NodeId> others;
  for (simnet::NodeId node : world.all_nodes())
    if (node != client.id()) others.push_back(node);
  world.faults().schedule_partition("client-cut", {{client.id()}, others},
                                    /*at=*/100, /*heal_at=*/5'000);
  std::optional<ClientActor::PayResult> result;
  world.sim().schedule(200, [&] {
    client.pay(coin, target,
               [&](ClientActor::PayResult r) { result = std::move(r); },
               /*timeout_ms=*/30'000);
  });
  world.sim().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->accepted) << (result->error ? *result->error : "");
  EXPECT_GE(client.resilience().retries, 1u);
  EXPECT_GT(result->elapsed_ms, 4'800);  // could not finish inside the cut
}

// ---------------------------------------------------------------------------
// Seed sweeps
// ---------------------------------------------------------------------------

class ChaosFastSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosFastSweep, SeededScheduleHoldsInvariants) {
  auto run = run_chaos_schedule(GetParam());
  if (!run.violations.empty()) report_failure(run);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFastSweep,
                         ::testing::Range<std::uint64_t>(1'000, 1'008));

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, SeededScheduleHoldsInvariants) {
  auto run = run_chaos_schedule(GetParam());
  if (!run.violations.empty()) report_failure(run);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Range<std::uint64_t>(0, 100));

}  // namespace
}  // namespace p2pcash::actors
