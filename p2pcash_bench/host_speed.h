// host_speed.h — how fast the host ran while the benchmark measured.
//
// The benchmark's reference host is a shared VM.  Each of its CPUs runs at
// one of two speeds that switch every ~100 ms (a busy hyperthread sibling
// on the physical core costs ~1.7x), and the share of slow time drifts
// over minutes.  Payment latency is CPU-bound and follows that drift 1:1:
// raw latency medians moved 16-37% between identical runs.
//
// HostSpeed samples a fixed arithmetic kernel (a 1024-bit Montgomery
// squaring chain, the shape of the program's hot loop) on every CPU every
// 10 ms, timed in thread CPU time, ~1% of each CPU.  A time measured over
// an interval is reported at nominal host speed by scaling it with
// kNominalUs / (kernel time during that interval).  The kernel is the
// benchmark's own code, so a change to the program's arithmetic is not
// scaled away.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace p2pcash_bench {

class HostSpeed {
 public:
  /// Kernel time defining nominal speed: the median sample on the
  /// reference host (4-core KVM guest, Xeon family 6 model 143).
  static constexpr double kNominalUs = 70;

  /// Starts one sampler thread per CPU this process may run on, pinned to
  /// it; sample times are ms since `origin`.
  explicit HostSpeed(std::chrono::steady_clock::time_point origin);
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Ends sampling (queries stay valid and get cheaper).
  void stop();
  /// False when a sampler died early (its CPU is then under-sampled).
  bool complete() const { return !failed_.load(); }

  /// Median kernel time (us) over samples taken in [from_ms, to_ms];
  /// NaN when there are none.
  double median_us(double from_ms, double to_ms) const;
  /// Mean kernel time (us) over samples taken in [from_ms, to_ms]; the
  /// right reference for CPU time, which accrues in fast and slow states.
  double mean_us(double from_ms, double to_ms) const;
  /// Factor taking a time measured over [from_ms, to_ms] to nominal speed:
  /// kNominalUs over the median sample in that interval, widened to at
  /// least the 200 ms around its midpoint.  For one operation that is the
  /// CPU state it ran in; medians keep single slow samples from ruling.
  double scale(double from_ms, double to_ms) const;

 private:
  using Sample = std::pair<double, double>;  ///< (ms since origin, us)

  /// Starts a sampler pinned to `cpu` (-1: unpinned).
  void start_sampler(int cpu);
  /// The kernel times of samples taken in [from_ms, to_ms].
  std::vector<double> window(double from_ms, double to_ms) const;

  const std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> running_{true};
  std::atomic<bool> failed_{false};
  mutable std::mutex mu_;
  mutable std::vector<Sample> samples_;  // guarded by mu_
  mutable bool sorted_ = true;           // guarded by mu_
  std::uint64_t checksum_ = 0;           // guarded by mu_; keeps results live
  std::vector<std::thread> samplers_;    // declared after what they use
};

}  // namespace p2pcash_bench
