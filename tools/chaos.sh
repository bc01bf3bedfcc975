#!/usr/bin/env bash
# Chaos sweep over the ovo CLI: drive `ovo order` with the --fault-*
# flags (see rt/fault.hpp) and assert the process-level failure contract
# at every injection point:
#
#   * the exit code is typed — 0 (fault absorbed / never reached),
#     3 (checkpoint I/O error), or 4 (injected bad_alloc) — never 1, and
#     never a signal death;
#   * no `<ckpt>.tmp` survives any run (the atomic-writer leak guard);
#   * whatever snapshot IS on disk after a failed run resumes to the
#     byte-identical JSON of an uninterrupted run (the crash-safety
#     invariant, end to end through the CLI).
#
# Deterministic sweeps fail the Nth event at each filesystem site and the
# Nth allocation event; a seeded probabilistic pass shakes out whatever
# the deterministic grid misses and must itself be bit-reproducible.
#
# Quick mode (--quick) trims the grid for CI smoke; full mode sweeps a
# deeper event range.  The in-process equivalents (every syscall of an
# n=10 pipeline, torn writes at every cut) live in fault_sweep_test and
# crash_sim_test; this script checks the same contracts one level up,
# through main()'s exit paths.
#
# Usage: tools/chaos.sh [--quick] [path/to/ovo]

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
OVO="build/tools/ovo"
for arg in "$@"; do
  case "${arg}" in
    --quick) QUICK=1 ;;
    *) OVO="${arg}" ;;
  esac
done
[[ -x "${OVO}" ]] || { echo "chaos.sh: ${OVO} not built" >&2; exit 2; }

FN="x1 & x2 | x3 & x4 | x5 & x6"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
CKPT="${WORK}/chaos.ckpt"

if [[ "${QUICK}" -eq 1 ]]; then
  FILE_SITES=(file_write file_rename)
  FILE_NTHS=(1 2 3)
  ALLOC_NTHS=(1 2)
  PROB_SEEDS=(7)
else
  FILE_SITES=(file_open file_write file_fsync file_rename file_close)
  FILE_NTHS=(1 2 3 4 5 6 7 8 9 10 11 12)
  ALLOC_NTHS=(1 2 3 5 8 13 21 34)
  PROB_SEEDS=(1 2 3 4 5)
fi

# The uninterrupted reference run every resumed run must reproduce.
"${OVO}" order --strategy fs --prune off --json "${FN}" \
  > "${WORK}/straight.json"

runs=0 absorbed=0 io_fail=0 alloc_fail=0 resumed=0

# rc-typed run + post-run invariants.  $1..: ovo args after `order`.
chaos_run() {
  rm -f "${CKPT}" "${CKPT}.tmp"
  local rc=0
  "${OVO}" order --strategy fs --prune off --json \
    --checkpoint "${CKPT}" "$@" "${FN}" \
    > "${WORK}/out.json" 2> "${WORK}/err.txt" || rc=$?
  runs=$((runs + 1))
  case "${rc}" in
    0) absorbed=$((absorbed + 1)) ;;
    3) io_fail=$((io_fail + 1)) ;;
    4) alloc_fail=$((alloc_fail + 1)) ;;
    *)
      echo "FAIL: untyped exit ${rc} for: $*" >&2
      cat "${WORK}/err.txt" >&2
      exit 1
      ;;
  esac
  if [[ -e "${CKPT}.tmp" ]]; then
    echo "FAIL: temp file leaked for: $*" >&2
    exit 1
  fi
  # A failed run that left a snapshot behind must resume to the
  # uninterrupted run's bytes.
  if [[ "${rc}" -ne 0 && -f "${CKPT}" ]]; then
    "${OVO}" order --strategy fs --prune off --json \
      --resume "${CKPT}" "${FN}" > "${WORK}/resumed.json"
    diff "${WORK}/straight.json" "${WORK}/resumed.json" || {
      echo "FAIL: resume diverged for: $*" >&2
      exit 1
    }
    resumed=$((resumed + 1))
  fi
}

echo "== chaos: filesystem-site sweep"
for site in "${FILE_SITES[@]}"; do
  for nth in "${FILE_NTHS[@]}"; do
    chaos_run --fault-fileop "${site}:${nth}"
  done
done

echo "== chaos: allocation-site sweep"
for nth in "${ALLOC_NTHS[@]}"; do
  chaos_run --fault-alloc-at "${nth}"
done

echo "== chaos: seeded probabilistic pass"
for seed in "${PROB_SEEDS[@]}"; do
  chaos_run --fault-prob 0.05 --fault-seed "${seed}"
  cp "${WORK}/out.json" "${WORK}/prob_a.json"
  chaos_run --fault-prob 0.05 --fault-seed "${seed}"
  # Same seed, same schedule, same bytes: the probabilistic injector must
  # be deterministic end to end.
  diff "${WORK}/prob_a.json" "${WORK}/out.json" || {
    echo "FAIL: probabilistic run not reproducible (seed ${seed})" >&2
    exit 1
  }
done

# The sweep must actually have bitten: at least one I/O failure and one
# allocation failure, and at least one failed run exercised resume.
[[ "${io_fail}" -ge 1 ]] || { echo "FAIL: no file fault landed" >&2; exit 1; }
[[ "${alloc_fail}" -ge 1 ]] || { echo "FAIL: no alloc fault landed" >&2; exit 1; }
[[ "${resumed}" -ge 1 ]] || { echo "FAIL: resume path never exercised" >&2; exit 1; }

echo "chaos sweep green: ${runs} runs (${absorbed} absorbed," \
     "${io_fail} io-failed, ${alloc_fail} alloc-failed, ${resumed} resumed)"
