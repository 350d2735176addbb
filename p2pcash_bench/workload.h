// workload.h — the benchmark's workloads and the run configuration.
//
// Every workload drives the same deployment: broker plus 8 merchant
// machines (storefront + witness), durable stores on, 3 strand workers,
// 4 client endpoints, the paper's 1024-bit group, all over loopback TCP.
// They differ in what they load, so each stresses a different layer:
//
//   pay_steady    open loop, 150 payments/s, k=1: the payer's latency on
//                 the 3-round-trip critical path with little queueing, so
//                 crypto self time in wallet, witness and merchant rules.
//   pay_saturate  closed loop, 16 payments outstanding, k=1: capacity —
//                 worker-pool queueing, strand/stripe contention and the
//                 io thread rule; a change that only shortens idle time
//                 shows nothing here, one that frees CPU does.
//   pay_k3        open loop, 60 payments/s, coins need 3 of 5 witnesses:
//                 about 2.5x the messages and wire bytes of pay_steady per
//                 payment with the same per-witness crypto, and each
//                 payment waits for the slowest of 3 witnesses.
//   commerce      open loop, 60 sessions/s, each withdraws a coin and pays
//                 with it while merchants deposit every 25 ms: the broker-
//                 bound path (blind-signature issuance and deposit checks
//                 share one broker strand, mutex and log).
//
// In every workload one slot in 20 re-spends an already-accepted coin at
// another merchant, so the time to stop a double spend is measured under
// each load.  Rates are set for a 4-core host.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace p2pcash_bench {

struct Workload {
  std::string name;
  bool closed_loop = false;
  double rate = 0;              ///< open loop: operations per second
  std::size_t outstanding = 0;  ///< closed loop: operations in flight
  std::uint8_t witness_n = 1;
  std::uint8_t witness_k = 1;
  bool sessions = false;        ///< each operation withdraws, then pays
  double flush_every_ms = 0;    ///< one merchant deposits per tick; 0 = none
};

/// One slot in this many re-spends an accepted coin.
inline constexpr std::size_t kRespendEvery = 20;
/// Merchant machines (storefront + witness) in the load run and the walk.
inline constexpr std::size_t kMerchants = 8;
/// Face value of every coin, in cents.
inline constexpr std::uint32_t kDenomination = 100;

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

struct RunConfig {
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10;   ///< timed window
  double warmup_s = 3;   ///< untimed load at the workload's rate first
  bool smoke = false;    ///< short run for the test suite
  bool trace = false;    ///< also run the traced layer walk
  std::string out_dir = ".";
};

}  // namespace p2pcash_bench
