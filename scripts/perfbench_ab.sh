#!/usr/bin/env bash
# Same-machine A/B of the perfbench benchmark: a base commit against the
# working tree this script belongs to.
#
# Usage: scripts/perfbench_ab.sh BASE_REF WORKLOAD [PAIRS=5] [SECONDS=8]
#
# Checks BASE_REF out with `git worktree add` into a temporary directory
# (no network needed), then runs
#   python3 perfbench/run.py --workload WORKLOAD --seed 1 \
#     --seconds SECONDS --trace 0
# PAIRS times from each root, interleaved base then change (ABAB...), so a
# slow phase of the host lands on both sides alike. Each root builds its
# own perfbench into its .bench_build/ on its first run. Prints every
# end-to-end metric's per-pair values, the median of each side and the
# median of the per-pair change/base ratios.
#
# Exit status: 0 when every run reports "correct": true with failed == 0,
# 1 when any run does not (or prints no result line), 2 on bad arguments.
# It is a measuring tool, not a gate: no ratio fails it.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
  echo "usage: $0 BASE_REF WORKLOAD [PAIRS=5] [SECONDS=8]" >&2
  exit 2
fi
base_ref="$1"
workload="$2"
pairs="${3:-5}"
seconds="${4:-8}"
if ! [[ "${pairs}" =~ ^[1-9][0-9]*$ && "${seconds}" =~ ^[1-9][0-9]*$ ]]; then
  echo "PAIRS and SECONDS must be positive integers" >&2
  exit 2
fi

change_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
scratch="$(mktemp -d)"
base_root="${scratch}/base"
cleanup() {
  git -C "${change_root}" worktree remove --force "${base_root}" \
    > /dev/null 2>&1 || true
  git -C "${change_root}" worktree prune > /dev/null 2>&1 || true
  rm -rf "${scratch}"
}
trap cleanup EXIT
git -C "${change_root}" worktree add --detach --quiet "${base_root}" \
  "${base_ref}"

# Runs one repeat from root $1 and stores its result line as $2.
run_one() {
  local root="$1" out="$2"
  (cd "${root}" && python3 perfbench/run.py --workload "${workload}" \
    --seed 1 --seconds "${seconds}" --trace 0 2> /dev/null || true) \
    | tail -n 1 > "${out}"
}

for ((i = 1; i <= pairs; ++i)); do
  echo "pair ${i}/${pairs}: base" >&2
  run_one "${base_root}" "${scratch}/base-${i}.json"
  echo "pair ${i}/${pairs}: change" >&2
  run_one "${change_root}" "${scratch}/change-${i}.json"
done

python3 - "${scratch}" "${pairs}" "${workload}" "${base_ref}" <<'EOF'
import json
import statistics
import sys

scratch, pairs, workload, base_ref = sys.argv[1], int(sys.argv[2]), *sys.argv[3:]
ok = True
runs = {"base": [], "change": []}
for side in runs:
    for i in range(1, pairs + 1):
        path = "%s/%s-%d.json" % (scratch, side, i)
        try:
            with open(path) as f:
                result = json.loads(f.read())
        except ValueError:
            print("%s pair %d: no result line" % (side, i))
            ok = False
            result = {"correct": False, "failed": None, "metrics": {}}
        if not result["correct"] or result["failed"] != 0:
            print("%s pair %d: correct=%s failed=%s"
                  % (side, i, result["correct"], result["failed"]))
            ok = False
        runs[side].append(result["metrics"])

print("workload %s, base %s, %d pairs (base then change)"
      % (workload, base_ref, pairs))
names = [n for n in runs["base"][0]
         if all(n in m for side in runs.values() for m in side)]
for name in names:
    base = [m[name]["value"] for m in runs["base"]]
    change = [m[name]["value"] for m in runs["change"]]
    ratios = [c / b if b else float("nan") for b, c in zip(base, change)]
    print("%s (%s)" % (name, runs["base"][0][name]["unit"]))
    for i, (b, c, r) in enumerate(zip(base, change, ratios), 1):
        print("  pair %d: base %-12.6g change %-12.6g ratio %.4f" % (i, b, c, r))
    print("  median: base %-12.6g change %-12.6g ratio %.4f"
          % (statistics.median(base), statistics.median(change),
             statistics.median(ratios)))
sys.exit(0 if ok else 1)
EOF
