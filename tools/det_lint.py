#!/usr/bin/env python3
"""det_lint.py — determinism static check for seed-replay code.

The simulation stack guarantees that one chaos seed replays to
byte-identical traces, metrics dumps and Table-2 numbers (pinned by
chaos_test / obs_test / simnet_test).  That guarantee dies the moment
simnet-reachable code reads a nondeterminism source, so this checker bans
them outright in the scoped directories (regex+context, AST-free, same
style as ct_lint.py):

  * C/C++ randomness not derived from the seeded bn::Rng —
    rand/srand/random_device/mt19937/default_random_engine and friends;
  * wall-clock reads — std::chrono::{system,steady,high_resolution}_clock,
    time(), clock(), gettimeofday, clock_gettime (sim code must use the
    sim clock, obs code is stamped with sim-time by its callers; the one
    reviewed exception is the obs::WallClock seam in src/obs/clock.h,
    whose steady_clock reads carry `det_lint: allow` tags — it exists so
    the SAME Tracer type can run on wall time under TcpNet, and it is
    never constructed on a replay path);
  * process environment — getenv (config must flow through explicit
    parameters so two runs of one binary cannot diverge);
  * unordered associative containers — std::unordered_map/set iteration
    order is unspecified, and in export/trace code that order leaks
    straight into output bytes.  The house style is std::map/std::set.

A finding on a line ending in `// det_lint: allow` (optionally with a
reason: `// det_lint: allow: probe jitter is outside the replayed state`)
is suppressed; suppressions are for reviewed lines where the value
provably never reaches wire/trace/JSON output.  The escape-hatch policy
lives in docs/STATIC_ANALYSIS.md.

Usage:
  tools/det_lint.py              lint the tree (exit 0 clean, 1 findings)
  tools/det_lint.py --self-test  verify the checker against the planted
                                 fixtures in tools/testdata/det_lint/

Exit status: 0 = clean / self-test pass, 1 = findings, 2 = internal error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Directories where seed-replay determinism is a tested guarantee: the
# simulation core, everything that runs inside it, and the observability
# stack whose dumps are byte-compared across replays.  src/ecash is
# included because ecash::Deployment builds every SimWorld node (and its
# RNG streams); src/sync because lock-order violation reports feed test
# assertions.
DET_DIRS = ("src/simnet", "src/actors", "src/overlay", "src/obs",
            "src/sync", "src/ecash")

# Directories explicitly OUTSIDE the determinism guarantee.  This is the
# escape hatch for code whose whole point is the real world:
#   * src/transport — the real TCP transport runs on the wall clock and
#     kernel sockets BY DESIGN; its determinism story is the SimnetTransport
#     shim (actors over simnet stay seed-replayable, pinned by chaos_test).
#     Nothing in src/transport may be reached from a simnet replay path —
#     SimWorld never constructs a TcpNet.
#   * everything else here is pure computation (crypto, codec, escrow)
#     or test/bench scaffolding that the replay tests don't byte-compare.
# Every immediate subdirectory of src/ must appear in DET_DIRS or
# EXEMPT_DIRS — an unclassified module is an error, so new code cannot
# silently dodge the determinism decision (same policy as ct_lint's
# module manifest).
EXEMPT_DIRS = ("src/bn", "src/crypto", "src/metrics", "src/group",
               "src/sig", "src/blindsig", "src/nizk", "src/wire",
               "src/verify", "src/transport", "src/baseline",
               "src/escrow",
               # src/store talks to the real filesystem (PosixVfs)
               # and measures wall-clock fsync latency by design, like
               # src/transport.  Simulation determinism is preserved by
               # MemVfs + the golden store/no-store equivalence test.
               "src/store")

ALLOW_RE = re.compile(r"//\s*det_lint:\s*allow(?::|\b)")

# (pattern, message).  Patterns run against comment/string-stripped code.
BANNED = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("),
     "rand()/srand() is unseeded global state; use the caller's bn::Rng"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic by design; use the seeded "
     "bn::Rng"),
    (re.compile(r"\b(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?"
                r"|ranlux(?:24|48)(?:_base)?|knuth_b)\b"),
     "std <random> engines bypass the seed-replay RNG; use bn::Rng"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "wall-clock reads diverge across replays; use the sim clock"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0|&|\))"),
     "time() reads the wall clock; use the sim clock"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|timespec_get)\s*\("),
     "wall-clock reads diverge across replays; use the sim clock"),
    (re.compile(r"\bgetenv\s*\("),
     "environment reads make two runs of one binary diverge; pass "
     "configuration explicitly"),
    (re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
     "unordered-container iteration order is unspecified and leaks into "
     "trace/JSON/wire bytes; use std::map/std::set"),
]


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literal contents (crude but
    sufficient for this codebase's formatting)."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//")[0]


def check_file(path: Path, repo_root: Path) -> list[str]:
    findings: list[str] = []
    rel = path.relative_to(repo_root).as_posix()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        if ALLOW_RE.search(raw):
            continue
        code = strip_comments_and_strings(raw)
        if not code.strip():
            continue
        for pattern, message in BANNED:
            m = pattern.search(code)
            if m:
                findings.append(
                    f"{rel}:{lineno}: '{m.group(0).strip()}': {message} "
                    f"(or mark '// det_lint: allow: <reason>')")
    return findings


def lint_paths(paths: list[Path], repo_root: Path) -> list[str]:
    findings: list[str] = []
    for path in sorted(paths):
        findings.extend(check_file(path, repo_root))
    return findings


def check_manifest(repo_root: Path) -> list[str]:
    """Every immediate subdirectory of src/ must be classified as
    determinism-scoped or exempt; an unclassified module means nobody
    decided whether the seed-replay guarantee applies to it."""
    src = repo_root / "src"
    known = {Path(d).name for d in DET_DIRS + EXEMPT_DIRS}
    return sorted(f"src/{p.name}" for p in src.iterdir()
                  if p.is_dir() and p.name not in known)


def lint_tree(repo_root: Path) -> int:
    unclassified = check_manifest(repo_root)
    if unclassified:
        for d in unclassified:
            print(f"det_lint.py: {d} is not classified in DET_DIRS or "
                  f"EXEMPT_DIRS; add it to the scope manifest",
                  file=sys.stderr)
        return 2
    files: list[Path] = []
    for d in DET_DIRS:
        base = repo_root / d
        if not base.is_dir():
            print(f"det_lint.py: scoped directory {d} missing",
                  file=sys.stderr)
            return 2
        files.extend(p for p in base.rglob("*")
                     if p.suffix in (".h", ".cpp"))
    findings = lint_paths(files, repo_root)
    if findings:
        for f in findings:
            print(f)
        print(f"\ndet_lint.py: {len(findings)} finding(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"det_lint.py: clean ({len(files)} files in "
          f"{len(DET_DIRS)} scoped dirs)")
    return 0


def self_test(repo_root: Path) -> int:
    """Verifies the checker still catches what it claims to catch, against
    planted fixtures.  Ctest runs this so a lint regression (a pattern
    edit that silently stops matching) fails the build, not a code review.
    """
    fixture_dir = repo_root / "tools" / "testdata" / "det_lint"
    cases = [
        # (fixture, min_findings, must_mention)
        ("bad_random_device.h", 1, "random_device"),
        ("bad_wall_clock.h", 2, "sim clock"),
        ("bad_unordered_export.h", 1, "unordered"),
        ("allowed.h", 0, None),
        ("clean.h", 0, None),
    ]
    failures: list[str] = []
    for name, min_findings, must_mention in cases:
        path = fixture_dir / name
        if not path.is_file():
            failures.append(f"fixture missing: {path}")
            continue
        findings = check_file(path, repo_root)
        if len(findings) < min_findings:
            failures.append(
                f"{name}: expected >= {min_findings} finding(s), got "
                f"{len(findings)}")
        if min_findings == 0 and findings:
            failures.append(f"{name}: expected clean, got: {findings}")
        if must_mention and not any(must_mention in f for f in findings):
            failures.append(
                f"{name}: no finding mentions '{must_mention}': {findings}")
    if failures:
        for f in failures:
            print(f"det_lint.py self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"det_lint.py: self-test OK ({len(cases)} fixtures)")
    return 0


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    if "--self-test" in sys.argv[1:]:
        return self_test(repo_root)
    if len(sys.argv) > 1:
        print(f"usage: {sys.argv[0]} [--self-test]", file=sys.stderr)
        return 2
    return lint_tree(repo_root)


if __name__ == "__main__":
    sys.exit(main())
