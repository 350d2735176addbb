#include "actors/retry.h"

#include <algorithm>

namespace p2pcash::actors {

simnet::SimTime RetryPolicy::next_backoff(simnet::SimTime prev_ms,
                                          bn::Rng& rng) const {
  const simnet::SimTime lo = backoff_base_ms;
  // Clamp BEFORE the 3x multiply: SimTime is a double, so a pathological
  // prev_ms (a caller feeding accumulated sim time, DBL_MAX, or an inf
  // from earlier arithmetic) would make 3 * prev_ms non-finite, and the
  // bounds of the jitter draw below would no longer be guaranteed to be
  // finite values inside [base, cap].
  const simnet::SimTime prev = std::min(prev_ms, backoff_cap_ms);
  const simnet::SimTime hi =
      std::min(backoff_cap_ms, std::max(lo, 3 * prev));
  if (hi <= lo) return lo;
  const double u = static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

bool PeerHealth::allow(simnet::NodeId peer, simnet::SimTime now) {
  sync::MutexLock lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end() || !it->second.open) return true;
  State& s = it->second;
  if (now >= s.open_until && !s.probing) {
    s.probing = true;  // half-open: exactly one probe
    return true;
  }
  return false;
}

void PeerHealth::record_success(simnet::NodeId peer) {
  sync::MutexLock lock(mu_);
  peers_.erase(peer);
}

bool PeerHealth::record_failure(simnet::NodeId peer, simnet::SimTime now) {
  sync::MutexLock lock(mu_);
  State& s = peers_[peer];
  if (s.open) {
    if (!s.probing) return false;  // failure of a pre-open attempt
    // Failed half-open probe: re-open the window.
    s.probing = false;
    s.open_until = now + config_.open_ms;
    ++trips_;
    return true;
  }
  if (++s.consecutive_failures < config_.failure_threshold) return false;
  s.open = true;
  s.probing = false;
  s.open_until = now + config_.open_ms;
  ++trips_;
  return true;
}

bool PeerHealth::is_open(simnet::NodeId peer, simnet::SimTime now) const {
  sync::MutexLock lock(mu_);
  auto it = peers_.find(peer);
  return it != peers_.end() && it->second.open && now < it->second.open_until;
}

}  // namespace p2pcash::actors
