// S — durable coin-state store: append/commit throughput on the in-memory
// and POSIX backends, group-commit fsync batching under concurrent
// committers, and crash-recovery scan rate (schema in EXPERIMENTS.md;
// baseline BENCH_storage.json, override with --json=PATH, --quick for CI
// smoke).

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "store/log_store.h"
#include "store/vfs.h"

using namespace p2pcash;
using namespace p2pcash::store;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct AppendResult {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fsyncs = 0;
  double seconds = 0;
  double records_per_s() const {
    return seconds > 0 ? static_cast<double>(records) / seconds : 0;
  }
  double mb_per_s() const {
    return seconds > 0
               ? static_cast<double>(bytes) / seconds / (1024.0 * 1024.0)
               : 0;
  }
};

/// Appends `n` deltas of `delta_bytes` each, committing every
/// `batch` appends — the synchronous-WAL workload the broker and witness
/// services drive through Store::append/commit.
AppendResult run_append(Vfs& vfs, const std::string& name, int n,
                        std::size_t delta_bytes, int batch) {
  LogStore log(vfs, name);
  std::vector<std::uint8_t> delta(delta_bytes, 0x5a);
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    delta[0] = static_cast<std::uint8_t>(i);
    log.append(delta);
    if ((i + 1) % batch == 0) log.commit();
  }
  log.commit();
  AppendResult r;
  r.seconds = seconds_since(t0);
  r.records = log.stats().appended_records;
  r.bytes = log.stats().appended_bytes;
  r.fsyncs = log.stats().fsyncs;
  return r;
}

void print_append(const std::string& tag, int batch, const AppendResult& r) {
  std::printf("  %-14s | batch %3d | %8.0f rec/s | %7.1f MB/s | %6llu fsyncs\n",
              tag.c_str(), batch, r.records_per_s(), r.mb_per_s(),
              static_cast<unsigned long long>(r.fsyncs));
}

void json_append(bench::JsonWriter& json, const std::string& key,
                 const AppendResult& r) {
  json.begin_object(key)
      .field("records", r.records)
      .field("bytes", r.bytes)
      .field("fsyncs", r.fsyncs)
      .field("seconds", r.seconds)
      .field("records_per_s", r.records_per_s())
      .field("mb_per_s", r.mb_per_s())
      .end_object();
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv, "BENCH_storage.json");
  const int n = args.quick ? 2'000 : 50'000;
  const std::size_t delta_bytes = 128;

  bench::header("S", "durable coin-state store: log, group commit, recovery");
  bench::JsonWriter json;
  json.field("bench", std::string("storage"))
      .field("schema_version", 2)
      .field("hardware_threads",
             std::uint64_t{std::thread::hardware_concurrency()})
      .field("quick", args.quick ? 1 : 0)
      .field("delta_bytes", std::uint64_t{delta_bytes})
      .field("records", std::uint64_t(n));

  // -- 1. Append/commit throughput, MemVfs vs PosixVfs ----------------------
  std::printf("  append+commit throughput (%d x %zu-byte deltas)\n", n,
              delta_bytes);
  json.begin_object("append");
  {
    MemVfs mem;
    for (int batch : {1, 8, 64}) {
      auto r = run_append(mem, "bench-" + std::to_string(batch) + ".log", n,
                          delta_bytes, batch);
      print_append("MemVfs", batch, r);
      json_append(json, "mem_batch_" + std::to_string(batch), r);
    }
  }
  {
    PosixVfs posix("/tmp/p2pcash_bench_storage");
    for (int batch : {1, 8, 64}) {
      const std::string name = "bench-" + std::to_string(batch) + ".log";
      if (posix.exists(name)) posix.remove(name);
      auto r = run_append(posix, name, n, delta_bytes, batch);
      print_append("PosixVfs", batch, r);
      json_append(json, "posix_batch_" + std::to_string(batch), r);
      posix.remove(name);
    }
  }
  json.end_object();

  // -- 2. Group commit under concurrent committers ---------------------------
  // Each thread appends then commits, like independent service calls; the
  // store's group-commit window lets one fsync acknowledge many commits.
  {
    MemVfs mem;
    LogStore log(mem, "group.log");
    const int threads = 8;
    const int per_thread = args.quick ? 200 : 2'000;
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        std::vector<std::uint8_t> delta(delta_bytes,
                                        static_cast<std::uint8_t>(t));
        for (int i = 0; i < per_thread; ++i) {
          log.append(delta);
          log.commit();
        }
      });
    for (auto& th : pool) th.join();
    const double secs = seconds_since(t0);
    const auto stats = log.stats();
    const double batching =
        stats.fsyncs > 0 ? double(stats.commits) / double(stats.fsyncs) : 0;
    std::printf("  group commit: %d threads x %d commits -> %llu fsyncs "
                "(%.1f commits/fsync)\n",
                threads, per_thread,
                static_cast<unsigned long long>(stats.fsyncs), batching);
    json.begin_object("group_commit")
        .field("threads", threads)
        .field("commits", stats.commits)
        .field("fsyncs", stats.fsyncs)
        .field("commits_per_fsync", batching)
        .field("seconds", secs)
        .end_object();
  }

  // -- 3. Crash-recovery scan rate ------------------------------------------
  // Reopen a log of n deltas: CRC-check, frame and replay every record.
  {
    MemVfs mem;
    std::uint64_t log_bytes = 0;
    {
      LogStore writer(mem, "recover.log");
      writer.checkpoint(std::vector<std::uint8_t>(1024, 0x11));
      std::vector<std::uint8_t> delta(delta_bytes, 0x22);
      for (int i = 0; i < n; ++i) writer.append(delta);
      writer.commit();
      log_bytes = writer.size_bytes();
    }
    auto t0 = std::chrono::steady_clock::now();
    LogStore reopened(mem, "recover.log");
    auto recovered = reopened.recover();
    const double secs = seconds_since(t0);
    const double rec_per_s = secs > 0 ? n / secs : 0;
    const double mb_per_s =
        secs > 0 ? static_cast<double>(log_bytes) / secs / (1024.0 * 1024.0)
                 : 0;
    std::printf("  recovery: %zu deltas (%llu bytes) in %.3f s "
                "-> %8.0f rec/s, %7.1f MB/s\n",
                recovered.deltas.size(),
                static_cast<unsigned long long>(log_bytes), secs, rec_per_s,
                mb_per_s);
    json.begin_object("recovery")
        .field("records", std::uint64_t(recovered.deltas.size()))
        .field("bytes", log_bytes)
        .field("seconds", secs)
        .field("records_per_s", rec_per_s)
        .field("mb_per_s", mb_per_s)
        .end_object();
  }

  json.write_file(args.json_path);
  return 0;
}
