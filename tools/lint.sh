#!/usr/bin/env bash
# lint.sh — static-analysis gate for the p2pcash tree.
#
# Runs, in order (any failure fails the script):
#   1. ct_lint.py  — secret-hygiene check (self-test, then the tree);
#   2. det_lint.py — determinism check for simnet-reachable + obs/sync
#                    code (self-test, then the tree);
#   3. layering   — src/transport sits below src/actors and includes
#                    none of its headers (the transport never retries;
#                    the actors' retry loop is the only one); src/ecash
#                    includes no transport/ or verify/ header (the
#                    runner for a payment's checks is injected into it
#                    as a callable, so the protocol layer knows no
#                    threads);
#   4. lock table — the sync::level constants in src/sync/annotated.h
#                    and the level rows of docs/STATIC_ANALYSIS.md agree
#                    in name and value;
#   5. clang-tidy over first-party sources when it is available; otherwise
#      a strict-warning build (-DP2PCASH_WERROR=ON), which promotes the
#      escalated warning set (-Wconversion -Wshadow -Wold-style-cast ...)
#      to errors under plain GCC/Clang.  When the compiler is clang, that
#      build also runs the -Wthread-safety capability analysis
#      (P2PCASH_THREAD_SAFETY, on by default for clang).
#
# Usage: tools/lint.sh [build-dir]
#   build-dir: compile-commands / fallback-build directory
#              (default: build-lint)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-lint}"
jobs="$(nproc 2>/dev/null || echo 4)"

cd "$repo_root"

echo "== lint.sh: ct_lint.py (secret hygiene)"
python3 tools/ct_lint.py --self-test
python3 tools/ct_lint.py

echo "== lint.sh: det_lint.py (seed-replay determinism)"
python3 tools/det_lint.py --self-test
python3 tools/det_lint.py

echo "== lint.sh: layering (src/transport includes nothing from actors/)"
if grep -rnE '#[[:space:]]*include[[:space:]]*[<"]actors/' src/transport; then
  echo "lint.sh: src/transport must not include actors/ headers" >&2
  exit 1
fi
echo "== lint.sh: layering (src/ecash includes nothing from transport/ or verify/)"
if grep -rnE '#[[:space:]]*include[[:space:]]*[<"](transport|verify)/' src/ecash; then
  echo "lint.sh: src/ecash must not include transport/ or verify/ headers" >&2
  exit 1
fi

echo "== lint.sh: lock table (src/sync/annotated.h = docs/STATIC_ANALYSIS.md)"
levels="$(sed -nE 's/^inline constexpr int (k[A-Za-z0-9]+) = ([0-9]+);$/\1 \2/p' \
  src/sync/annotated.h | sort)"
rows="$(sed -nE 's/^\| `(k[A-Za-z0-9]+)` \| ([0-9]+) \|.*/\1 \2/p' \
  docs/STATIC_ANALYSIS.md | sort)"
if [[ -z "$levels" || "$levels" != "$rows" ]]; then
  diff <(echo "$levels") <(echo "$rows") | sed 's/^/  /' >&2 || true
  echo "lint.sh: lock levels (<) and the docs/STATIC_ANALYSIS.md table (>) differ" >&2
  exit 1
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== lint.sh: clang-tidy $(clang-tidy --version | grep -o 'version [0-9.]*') over src/ tests/ bench/ examples/"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  mapfile -t sources < <(git ls-files 'src/*.cpp' 'tests/*.cpp' 'bench/*.cpp' 'examples/*.cpp')
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p "$build_dir" -j "$jobs" "${sources[@]}"
  else
    clang-tidy -quiet -p "$build_dir" "${sources[@]}"
  fi
  echo "== lint.sh: clang-tidy clean"
else
  echo "== lint.sh: clang-tidy not found; falling back to -Werror build with the escalated warning set"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DP2PCASH_WERROR=ON >/dev/null
  cmake --build "$build_dir" -j "$jobs" >/dev/null
  echo "== lint.sh: strict-warning build clean"
fi

echo "== lint.sh: OK"
