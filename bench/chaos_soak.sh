#!/usr/bin/env bash
# Chaos soak: seeded randomized fault schedules swept across
# scheduler x backend x checkpoint legs, each gated on byte-identity
# against the fault-free run and on a recovery-cost budget (see
# tools/mrbio_chaos.cpp for the per-seed protocol).
#
#   bench/chaos_soak.sh [--smoke|--full] [--build-dir DIR] [--work-dir DIR]
#
# --smoke (the CI default) runs a bounded seed set per leg; --full widens
# the sweep for overnight soaks. Exits nonzero when any leg fails; failing
# seeds keep their artifacts (fault plan, per-attempt logs, both output
# trees, checkpoint dir) under the work dir for inspection.
set -uo pipefail

repo_dir="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_dir/build"
work_dir=""
suite=smoke

while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) suite=smoke ;;
    --full) suite=full ;;
    --build-dir) build_dir="$2"; shift ;;
    --work-dir) work_dir="$2"; shift ;;
    *) echo "usage: bench/chaos_soak.sh [--smoke|--full] [--build-dir DIR] [--work-dir DIR]" >&2
       exit 1 ;;
  esac
  shift
done

chaos="$build_dir/tools/mrbio_chaos"
if [ ! -x "$chaos" ]; then
  echo "chaos_soak.sh: $chaos not built (cmake --build $build_dir --target mrbio_chaos mrgraph_build)" >&2
  exit 1
fi
if [ -z "$work_dir" ]; then
  work_dir="${TMPDIR:-/tmp}/mrbio_chaos_soak.$$"
fi
mkdir -p "$work_dir"

if [ "$suite" = smoke ]; then
  seeds=4; nseq=32; ranks=4
else
  seeds=16; nseq=64; ranks=6
fi

failed=0
run_leg() {
  local name="$1"; shift
  echo "== chaos leg: $name =="
  if ! "$chaos" --seeds "$seeds" --nseq "$nseq" --ranks "$ranks" \
       --work-dir "$work_dir/$name" "$@"; then
    failed=$((failed + 1))
    echo "== chaos leg FAILED: $name =="
  fi
}

# The full fault menu (crashes incl. rank 0, kills, shard corruption,
# shaping) exists under a remote scheduler with a checkpoint dir; the
# remaining legs exercise the subsets their stacks support.
run_leg steal-ckpt          --scheduler steal --ckpt --seed0 1
run_leg steal-ckpt-sharded  --scheduler steal --ckpt --ledger-ranks 2 \
                            --heartbeat interval=0.2,phi=6 --seed0 101
run_leg steal-nockpt        --scheduler steal --seed0 201
run_leg master              --scheduler master --style master --seed0 301
run_leg native-shaping      --scheduler chunk --backend native --no-crash --seed0 401

if [ "$failed" -gt 0 ]; then
  echo "chaos_soak: $failed leg(s) failed; artifacts under $work_dir"
  exit 1
fi
echo "chaos_soak: all legs passed"
rmdir "$work_dir" 2>/dev/null || true
