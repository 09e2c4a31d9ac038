#!/usr/bin/env bash
# Same-machine A/B of the perfbench benchmark: a base commit against the
# working tree this script belongs to.
#
# Usage: scripts/perfbench_ab.sh BASE_REF WORKLOAD [PAIRS=5] [SECONDS=8] [SEED=1]
#
# Exports BASE_REF with `git archive` into a temporary directory (no
# network needed, and the checkout's .git is left alone), then runs
#   python3 perfbench/run.py --workload WORKLOAD --seed SEED \
#     --seconds SECONDS --trace 0
# PAIRS times from each root, alternating which side runs first (base then
# change in odd pairs, change then base in even ones), so neither side
# always runs on a cooler or warmer host. Each root builds its own perfbench
# into its .bench_build/ on its first run. Prints every end-to-end metric's
# per-pair values, the median and quartiles of each side and the median of
# the per-pair change/base ratios. For metrics BENCHMARK.json gives a
# direction, it also prints in how many pairs the change was better (ties
# count for neither side), the median gap against the base's own
# interquartile spread, and one verdict:
#   better      the change is better in at least 9 of 10 pairs and its
#               median beats the base's by more than the base's Q3-Q1;
#   worse       the same rule, mirrored;
#   unresolved  anything else.
# "better" is the evidence a claimed gain needs. For metrics with a
# BENCHMARK.json `bound` it also prints whether the median ratio stays
# inside that bound on the worse side. A SEED other than 1 repeats the
# comparison on a held-out workload seed.
#
# The last stdout line is one JSON summary: the "workload", "correct"
# (every run reported "correct": true with failed == 0) and, per metric, its
# "median_ratio" (change/base) and, where BENCHMARK.json gives a direction,
# "wins", "losses" and "verdict".
#
# Exit status: 0 when every run reports "correct": true with failed == 0,
# 1 when any run does not (or prints no result line), 2 on bad arguments.
# No ratio fails it: scripts/check.sh's perf A/B gate applies its 10% rule
# to the summary line's median ratios.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
  echo "usage: $0 BASE_REF WORKLOAD [PAIRS=5] [SECONDS=8] [SEED=1]" >&2
  exit 2
fi
base_ref="$1"
workload="$2"
pairs="${3:-5}"
seconds="${4:-8}"
seed="${5:-1}"
if ! [[ "${pairs}" =~ ^[1-9][0-9]*$ && "${seconds}" =~ ^[1-9][0-9]*$ &&
        "${seed}" =~ ^[0-9]+$ ]]; then
  echo "PAIRS and SECONDS must be positive integers, SEED a non-negative" \
    "integer" >&2
  exit 2
fi

change_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
scratch="$(mktemp -d)"
base_root="${scratch}/base"
trap 'rm -rf "${scratch}"' EXIT
mkdir "${base_root}"
git -C "${change_root}" archive "${base_ref}" | tar -x -C "${base_root}"

# Runs one repeat from root $1 and stores its result line as $2.
run_one() {
  local root="$1" out="$2"
  (cd "${root}" && python3 perfbench/run.py --workload "${workload}" \
    --seed "${seed}" --seconds "${seconds}" --trace 0 2> /dev/null || true) \
    | tail -n 1 > "${out}"
}

for ((i = 1; i <= pairs; ++i)); do
  sides=(base change)
  if ((i % 2 == 0)); then sides=(change base); fi
  for side in "${sides[@]}"; do
    echo "pair ${i}/${pairs}: ${side}" >&2
    root="${base_root}"
    if [[ "${side}" == change ]]; then root="${change_root}"; fi
    run_one "${root}" "${scratch}/${side}-${i}.json"
  done
done

python3 - "${scratch}" "${pairs}" "${workload}" "${base_ref}" "${seed}" \
  "${change_root}/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

scratch, pairs, workload, base_ref, seed, spec_path = (
    sys.argv[1], int(sys.argv[2]), *sys.argv[3:])
with open(spec_path) as f:
    spec = json.load(f)
better = {m["name"]: m["better"]
          for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
bounds = {m["name"]: m["bound"]
          for m in spec.get("end_to_end", []) if "bound" in m}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3

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

print("workload %s, seed %s, base %s, %d pairs (alternating which side runs"
      " first)" % (workload, seed, base_ref, pairs))
names = [n for n in runs["base"][0]
         if all(n in m for side in runs.values() for m in side)]
summary = {"workload": workload, "correct": ok, "metrics": {}}
for name in names:
    base = [m[name]["value"] for m in runs["base"]]
    change = [m[name]["value"] for m in runs["change"]]
    ratios = [c / b if b else float("nan") for b, c in zip(base, change)]
    print("%s (%s)" % (name, runs["base"][0][name]["unit"]))
    for i, (b, c, r) in enumerate(zip(base, change, ratios), 1):
        print("  pair %d: base %-12.6g change %-12.6g ratio %.4f" % (i, b, c, r))
    base_median, change_median = statistics.median(base), statistics.median(change)
    ratio = statistics.median(ratios)
    print("  median: base %-12.6g change %-12.6g ratio %.4f"
          % (base_median, change_median, ratio))
    summary["metrics"][name] = {"median_ratio": ratio}
    base_q1, base_q3 = quartiles(base)
    change_q1, change_q3 = quartiles(change)
    print("  quartiles: base %.6g..%.6g change %.6g..%.6g"
          % (base_q1, base_q3, change_q1, change_q3))
    if name in better:
        sign = 1 if better[name] == "higher" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
        gain = sign * (change_median - base_median)  # > 0: change better
        spread = base_q3 - base_q1
        print("  change better in %d of %d pairs (%d tied, %s is better);"
              " median gap %.6g vs base spread (Q3-Q1) %.6g"
              % (wins, pairs, pairs - wins - losses, better[name],
                 abs(gain), spread))
        verdict = "unresolved"
        if 10 * wins >= 9 * pairs and gain > spread:
            verdict = "better"
        elif 10 * losses >= 9 * pairs and -gain > spread:
            verdict = "worse"
        print("  verdict: %s" % verdict)
        summary["metrics"][name].update(
            wins=wins, losses=losses, verdict=verdict)
        if name in bounds:
            limit = 1 - sign * bounds[name]
            inside = sign * (ratio - limit) >= 0
            print("  bound %g: median ratio %.4f is %s (limit %.4f)"
                  % (bounds[name], ratio,
                     "inside" if inside else "OUTSIDE", limit))
print(json.dumps(summary))
sys.exit(0 if ok else 1)
EOF
