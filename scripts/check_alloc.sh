#!/bin/sh
# Assert the allocation gate on the output of one benchsuite run
# (benchsuite/run.py prints one JSON object as its last stdout line):
#
#   correct          == true   every op passed its checks
#   alloc_mb_per_op  <= 25     heap allocation per op, in MB
#
# Allocation volume is fixed by the seed and the workload, not by the
# machine's speed or load, so unlike a timing gate this one can be hard
# on a shared runner. Field extraction is plain grep/sed.
set -eu

out="${1:-alloc_gate.out}"
max=25

[ -s "$out" ] || { echo "check_alloc: $out missing or empty"; exit 1; }

line=$(tail -n 1 "$out")
correct=$(printf '%s\n' "$line" | grep -o '"correct": *[a-z]*' | head -1 \
  | grep -o '[a-z]*$' || true)
alloc=$(printf '%s\n' "$line" \
  | grep -o '"alloc_mb_per_op": *{ *"value": *[0-9.eE+-]*' | head -1 \
  | sed 's/.*: *//' || true)

[ -n "$correct" ] && [ -n "$alloc" ] \
  || { echo "check_alloc: no result line with alloc_mb_per_op in $out (run with --trace 0)"; exit 1; }

echo "check_alloc: correct=$correct alloc_mb_per_op=$alloc (max $max)"

fail=0
[ "$correct" = "true" ] \
  || { echo "check_alloc: FAIL: some ops failed their checks"; fail=1; }
awk "BEGIN { exit !($alloc <= $max) }" \
  || { echo "check_alloc: FAIL: $alloc MB per op exceeds $max"; fail=1; }

[ "$fail" -eq 0 ] && echo "check_alloc: OK"
exit "$fail"
