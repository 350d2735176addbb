// load.h — the untraced end-to-end run: a real NodeRuntime over loopback
// TCP, loaded by one generator thread.
//
// The generator posts ClientActor::pay / withdraw onto client strands with
// completion callbacks, so load costs no extra threads or sockets.  Open
// loops time each operation from its scheduled due time (a stall delays
// everything behind it); the closed loop times it from its post.  Setup
// (node builds, coin minting) and the warm-up are excluded from the timed
// window; layer counters are read as differences across that window.
// Times are reported at nominal host speed (host_speed.h) and as measured
// (`_raw`).

#pragma once

#include <cstddef>

#include "results.h"
#include "workload.h"

namespace p2pcash_bench {

struct LoadOutcome {
  std::size_t attempted = 0;  ///< operations due in the timed window
  std::size_t failed = 0;     ///< of those, not completed as intended
};

/// Runs the workload end to end, adding every end-to-end metric, the
/// runtime's per-layer metrics and the validity gates to `report`.
LoadOutcome run_load(const RunConfig& config, Report& report);

}  // namespace p2pcash_bench
