// layers.h — the traced layer walk behind the per-layer metrics.
//
// A separate, single-threaded replay of the workload's operation mix
// through the public ecash calls: same k-of-n, same re-spend share, same
// deposit cadence, durable stores as in the runtime (LogStore over MemVfs)
// behind timing decorators.  Coins are minted first and spent afterwards,
// in the same order as the untimed setup and the timed run (commerce
// withdraws and pays per session, as its timed run does).  Every call
// into a layer is timed from outside and recorded as a span with a
// bench-owned Tracer, exported as TRACE_<workload>.jsonl.
//
// Primitive probes (group, nizk, sig, wire, framing), a TcpNet ping-pong
// and a PosixVfs fsync probe complete the layer picture, and a budget table
// splits the untraced run's median across the critical-path calls, three
// round trips and an unattributed remainder.  Every time except the fsync
// (a disk's, not the CPU's) is reported at nominal host speed, as the
// untraced median is, so the rows and the median are comparable.

#pragma once

#include "results.h"
#include "workload.h"

namespace p2pcash_bench {

/// Adds every per-layer metric from the walk and the probes to `report`
/// and prints the budget; the report must already hold the untraced run's
/// op_p50_ms.
void run_layer_walk(const RunConfig& config, Report& report);

}  // namespace p2pcash_bench
