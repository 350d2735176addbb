#include "host_speed.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <limits>

namespace p2pcash_bench {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
constexpr int kLimbs = 16;  // 1024 bits
constexpr int kSquarings = 100;
constexpr auto kPeriod = std::chrono::milliseconds(10);
constexpr double kMinHalfWindowMs = 100;

struct Modulus {
  u64 n[kLimbs];
  u64 n0inv;  ///< -n^-1 mod 2^64
};

/// A fixed odd 1024-bit modulus (xorshift digits), the same on every run.
Modulus make_modulus() {
  Modulus m{};
  u64 x = 0x9e3779b97f4a7c15ULL;
  for (u64& limb : m.n) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    limb = x;
  }
  m.n[0] |= 1;
  m.n[kLimbs - 1] |= u64{1} << 63;
  u64 inv = 1;  // Newton: each step doubles the correct low bits
  for (int i = 0; i < 6; ++i) inv *= 2 - m.n[0] * inv;
  m.n0inv = ~inv + 1;
  return m;
}

/// a = a^2 / 2^1024 mod n (CIOS Montgomery, result below 2n).
void mont_square(u64 (&a)[kLimbs], const Modulus& m) {
  u64 t[kLimbs + 2] = {};
  for (int i = 0; i < kLimbs; ++i) {
    u128 c = 0;
    for (int j = 0; j < kLimbs; ++j) {
      c = static_cast<u128>(a[j]) * a[i] + t[j] + (c >> 64);
      t[j] = static_cast<u64>(c);
    }
    c = static_cast<u128>(t[kLimbs]) + (c >> 64);
    t[kLimbs] = static_cast<u64>(c);
    t[kLimbs + 1] = static_cast<u64>(c >> 64);
    const u64 q = t[0] * m.n0inv;
    c = static_cast<u128>(q) * m.n[0] + t[0];
    for (int j = 1; j < kLimbs; ++j) {
      c = static_cast<u128>(q) * m.n[j] + t[j] + (c >> 64);
      t[j - 1] = static_cast<u64>(c);
    }
    c = static_cast<u128>(t[kLimbs]) + (c >> 64);
    t[kLimbs - 1] = static_cast<u64>(c);
    t[kLimbs] = t[kLimbs + 1] + static_cast<u64>(c >> 64);
  }
  std::copy(t, t + kLimbs, a);
}

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: one unpinned sampler
  return cpus;
}

}  // namespace

HostSpeed::HostSpeed(std::chrono::steady_clock::time_point origin)
    : origin_(origin) {
  try {
    for (const int cpu : allowed_cpus()) start_sampler(cpu);
  } catch (...) {
    stop();  // a thread failed to start: join the ones that did
    throw;
  }
}

void HostSpeed::start_sampler(int cpu) {
  samplers_.emplace_back([this, cpu] {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    }
    static const Modulus m = make_modulus();
    u64 a[kLimbs];
    std::copy(m.n, m.n + kLimbs, a);
    a[kLimbs - 1] >>= 1;
    try {
      while (running_.load()) {
        std::this_thread::sleep_for(kPeriod);
        const auto at = std::chrono::steady_clock::now();
        const double start = thread_cpu_us();
        for (int k = 0; k < kSquarings; ++k) mont_square(a, m);
        const double us = thread_cpu_us() - start;
        std::lock_guard lock(mu_);
        samples_.emplace_back(
            std::chrono::duration<double, std::milli>(at - origin_).count(),
            us);
        sorted_ = false;
      }
    } catch (...) {
      failed_.store(true);
    }
    std::lock_guard lock(mu_);
    checksum_ += a[0];
  });
}

HostSpeed::~HostSpeed() { stop(); }

void HostSpeed::stop() {
  running_.store(false);
  for (auto& t : samplers_) t.join();
  samplers_.clear();
}

std::vector<double> HostSpeed::window(double from_ms, double to_ms) const {
  std::lock_guard lock(mu_);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  auto it = std::lower_bound(samples_.begin(), samples_.end(),
                             Sample{from_ms, -1.0});
  std::vector<double> us;
  for (; it != samples_.end() && it->first <= to_ms; ++it)
    us.push_back(it->second);
  return us;
}

double HostSpeed::median_us(double from_ms, double to_ms) const {
  std::vector<double> us = window(from_ms, to_ms);
  if (us.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto mid = us.begin() + static_cast<std::ptrdiff_t>(us.size() / 2);
  std::nth_element(us.begin(), mid, us.end());
  return *mid;
}

double HostSpeed::mean_us(double from_ms, double to_ms) const {
  const std::vector<double> us = window(from_ms, to_ms);
  if (us.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0;
  for (double x : us) sum += x;
  return sum / static_cast<double>(us.size());
}

double HostSpeed::scale(double from_ms, double to_ms) const {
  const double mid = (from_ms + to_ms) / 2;
  return kNominalUs / median_us(std::min(from_ms, mid - kMinHalfWindowMs),
                                std::max(to_ms, mid + kMinHalfWindowMs));
}

}  // namespace p2pcash_bench
