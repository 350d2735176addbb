// checks.h — a payment's independent checks and the runner they run on.
//
// Verifying a payment (merchant, Algorithm 2 step 3) or a transcript to
// countersign (witness, step 4) is mostly a list of side-effect-free
// checks over immutable inputs: the broker's blind signature with F(info),
// each witness entry's signature, the probe sequence, the transfer chain,
// the NIZK, each witness commitment.  None reads another's result, so
// they may run in any order or at once.  The stateful part of each entry
// point (seen/pending maps, the witness's spend state, the journal) stays
// on the calling thread and runs only after every check passed.
//
// The caller supplies the runner as a callable, so this layer knows
// nothing of threads: the actors pass their transport's.  An empty runner
// (and the simulator's transport) runs the checks on the calling thread
// in list order and stops at the first failure; TcpNet fans them out over
// its worker pool.  Either way the result is the refusal of the first
// failing check in list order, and the crypto ops charged to the caller's
// active OpCounters are those of the checks up to and including it, so
// Table 1 and the simulator's cost charges do not depend on the runner.

#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <variant>

#include "ecash/common.h"

namespace p2pcash::ecash {

/// One side-effect-free check: ok, or the refusal it stands for.  May run
/// on any thread, concurrently with the other checks of its list.
using Check = std::function<Outcome<std::monostate>()>;

/// Runs independent tasks, each returning true on success, and returns
/// the index of the first failing task in list order, or tasks.size()
/// when all pass.  Tasks after the first failure may or may not have run.
/// Returns only once every task it started has finished.
using CheckRunner =
    std::function<std::size_t(std::span<const std::function<bool()>>)>;

/// Runs `checks` on `runner` (when empty: in order on the calling thread,
/// stopping at the first failure) and returns the
/// first refusal in list order, or ok.  Each check counts its ops into an
/// OpCounters of its own; after the join the counts of the checks up to
/// the first failure are added to the calling thread's active counter.
/// A check that throws fails; its exception is rethrown here if it is the
/// first failure.
Outcome<std::monostate> run_checks(std::span<const Check> checks,
                                   const CheckRunner& runner);

}  // namespace p2pcash::ecash
