// p2pcash_bench — end-to-end payment and withdrawal benchmark over real TCP
// on the paper's 1024-bit group, with a traced per-layer budget.
//
//   p2pcash_bench --workload=NAME|all [--seed=N] [--seconds=S] [--trace]
//                 [--smoke] [--out=DIR]
//
// Prints every metric as `name workload value unit`, writes
// DIR/RESULTS_<workload>[_trace].json (input to bench_compare.py), and ends
// with one JSON line: the end-to-end metrics, or with --trace the
// per-layer metrics of the traced walk.  Exits non-zero when a validity
// gate fails.  `--workload=all` runs each workload in a process of its
// own, so the group's process-wide caches start cold every time.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "load.h"
#include "results.h"
#include "workload.h"

extern char** environ;

namespace p2pcash_bench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"pay_steady", false, 150, 0, 1, 1, false, 0},
      {"pay_saturate", true, 0, 16, 1, 1, false, 0},
      {"pay_k3", false, 60, 0, 5, 3, false, 0},
      {"commerce", false, 60, 0, 1, 1, true, 25},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

namespace {

/// The closing JSON line's metrics: BENCHMARK.json's end_to_end list, and
/// its per_layer list for --trace (check_declared.py keeps them equal).
const std::vector<std::string> kEndToEnd = {
    "op_p50_ms", "op_p98_ms", "ds_stop_p50_ms", "cpu_ms_per_op",
    "rss_mb",    "setup_s",
};
const std::vector<std::string> kPerLayer = {
    "ecash.wallet.prepare_payment_us",
    "ecash.wallet.build_transcript_us",
    "ecash.witness.request_commitment_us",
    "ecash.witness.sign_transcript_us",
    "ecash.witness.sign_transcript_ds_us",
    "ecash.merchant.receive_payment_us",
    "ecash.merchant.add_endorsement_us",
    "ecash.merchant.handle_double_spend_us",
    "ecash.broker.start_withdrawal_us",
    "ecash.broker.finish_withdrawal_us",
    "ecash.wallet.begin_withdrawal_us",
    "ecash.wallet.complete_withdrawal_us",
    "ecash.broker.deposit_us",
    "ecash.pay_cpu_us",
    "ecash.withdraw_cpu_us",
    "group.exp_us",
    "group.exp_fixed_us",
    "group.hash_to_group_us",
    "group.hash_to_group_memo_us",
    "nizk.verify_response_us",
    "sig.verify_us",
    "crypto.exp_per_pay",
    "crypto.hash_per_pay",
    "crypto.sig_per_pay",
    "crypto.ver_per_pay",
    "crypto.exp_per_withdraw",
    "crypto.exp_per_deposit",
    "crypto.est_pay_us",
    "wire.transcript_bytes",
    "wire.encode_transcript_us",
    "wire.decode_transcript_us",
    "wire.frame_roundtrip_us",
    "transport.rtt_us",
    "transport.msgs_per_op",
    "transport.bytes_per_op",
    "transport.io_busy_frac",
    "transport.strand_batch_mean",
    "transport.timer_delay_mean_ms",
    "transport.backpressure_drops",
    "transport.reads_paused",
    "transport.decode_errors",
    "verify.queue_delay_mean_ms",
    "verify.drain_batch_mean",
    "store.append_us",
    "store.commit_us",
    "store.records_per_pay",
    "store.bytes_per_pay",
    "store.records_per_withdraw",
    "store.records_per_deposit",
    "store.commit_batch_mean",
    "store.posix_fsync_us",
    "actors.retries_per_op",
    "actors.timeouts",
    "actors.failovers",
    "actors.useful_ratio",
    "actors.span.withdraw_mean_ms",
    "actors.span.payment_commit_mean_ms",
    "actors.span.witness_sign_mean_ms",
    "actors.span.payment_mean_ms",
    "actors.span.deposit_mean_ms",
    "obs.spans_per_op",
    "host.ref_us",
    "bench.gen_late_p99_ms",
    "bench.trace_overhead_pct",
    "budget.remainder_ms",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool seconds_set = false;
  bool trace = false;
  bool smoke = false;
  std::string out = ".";
};

int usage() {
  std::fprintf(stderr,
               "usage: p2pcash_bench --workload=NAME|all [--seed=N] "
               "[--seconds=S] [--trace] [--smoke] [--out=DIR]\n"
               "workloads:");
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&a](const char* flag) -> const char* {
      const std::string prefix = std::string(flag) + "=";
      return a.rfind(prefix, 0) == 0 ? a.c_str() + prefix.size() : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload")) {
      args.workload = v;
    } else if (const char* v = value("--seed")) {
      args.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if (const char* v = value("--seconds")) {
      args.seconds = std::strtod(v, &end);
      args.seconds_set = true;
      if (*v == '\0' || *end != '\0' || !(args.seconds > 0)) return false;
    } else if (const char* v = value("--out")) {
      args.out = v;
    } else if (a == "--trace") {
      args.trace = true;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

/// Runs every workload in a child process of its own; non-zero if any failed.
int run_all(int argc, char** argv) {
  int status_all = 0;
  for (const auto& w : workloads()) {
    std::vector<std::string> args = {"/proc/self/exe"};
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      args.push_back(a.rfind("--workload=", 0) == 0 ? "--workload=" + w.name
                                                     : a);
    }
    std::vector<char*> cargs;
    for (auto& a : args) cargs.push_back(a.data());
    cargs.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, cargs.data(),
                    environ) != 0) {
      std::perror("posix_spawn");
      return 1;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "p2pcash_bench: workload %s failed\n",
                   w.name.c_str());
      status_all = 1;
    }
  }
  return status_all;
}

}  // namespace
}  // namespace p2pcash_bench

int main(int argc, char** argv) {
  using namespace p2pcash_bench;
  Args args;
  if (!parse(argc, argv, args)) return usage();
  if (args.workload == "all") return run_all(argc, argv);
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) return usage();

  RunConfig cfg;
  cfg.workload = *w;
  cfg.seed = args.seed;
  cfg.seconds = args.seconds;
  cfg.trace = args.trace;
  cfg.smoke = args.smoke;
  cfg.out_dir = args.out;
  if (args.smoke) {
    cfg.seconds = args.seconds_set ? args.seconds : 2;
    cfg.warmup_s = 0.5;
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("p2pcash_bench workload=%s seed=%llu seconds=%g warmup=%g "
              "trace=%d hardware_threads=%u%s\n",
              w->name.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.warmup_s, cfg.trace ? 1 : 0, hw,
              hw < 4 ? " (oversubscribed: fewer than 4 cores)" : "");
  Report report(w->name);
  report.context("seed", static_cast<double>(cfg.seed));
  report.context("seconds", cfg.seconds);
  report.context("warmup_s", cfg.warmup_s);
  report.context("trace", cfg.trace ? 1 : 0);
  report.context("hardware_threads", hw);
  report.context("oversubscribed", hw < 4 ? 1 : 0);

  LoadOutcome outcome;
  try {
    outcome = run_load(cfg, report);
    if (cfg.trace) run_layer_walk(cfg, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2pcash_bench: %s: %s\n", w->name.c_str(), e.what());
    return 1;
  }
  report.print_lines();
  const std::string results = cfg.out_dir + "/RESULTS_" + w->name +
                              (cfg.trace ? "_trace" : "") + ".json";
  if (!write_file(results, report.to_json()))
    std::fprintf(stderr, "p2pcash_bench: cannot write %s\n", results.c_str());

  try {
    std::printf("%s\n", report
                            .summary_line(cfg.trace ? kPerLayer : kEndToEnd,
                                          outcome.attempted, outcome.failed)
                            .c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2pcash_bench: %s\n", e.what());
    return 1;
  }
  return report.gates_pass() ? 0 : 1;
}
