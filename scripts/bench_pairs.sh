#!/bin/sh
# Paired benchmark of a base revision against the working tree:
#
#   scripts/bench_pairs.sh BASE_REF WORKLOAD SEED
#
# Checks BASE_REF out into a temporary git worktree, copies the working
# tree (tracked files and untracked ones git does not ignore) next to
# it, and builds the benchsuite in both. Both sides thus run from fresh
# builds under one temporary directory: a side run in the checkout
# itself read `setup_s` 8-14% slower than the same commit run from the
# temporary worktree. Then runs PAIRS alternating pairs of 20 s untraced
# benchsuite runs of WORKLOAD at SEED: the base runs first in odd pairs,
# the working tree first in even ones, so drift in the machine's load
# hits both sides alike. Prints `run.py compare` over the two sets of reports and exits
# with its status (1 on a regression). The worktree, the copy and the
# reports are removed on exit.
#
# The pair count is fixed: `compare` only calls a gain with at least ten
# pairs. One call takes about eight minutes.
set -eu

PAIRS=10
SECONDS_PER_RUN=20

[ "$#" -eq 3 ] || { echo "usage: $0 BASE_REF WORKLOAD SEED" >&2; exit 2; }
base_ref=$1
workload=$2
seed=$3

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
wt="$tmp/base"
new="$tmp/new"

cleanup() {
  git -C "$root" worktree remove --force "$wt" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$root" worktree add --quiet --detach "$wt" "$base_ref"

# Files deleted from the working tree but still in the index are skipped.
mkdir "$new"
git -C "$root" ls-files --cached --others --exclude-standard \
  | while IFS= read -r f; do [ -e "$root/$f" ] && printf '%s\n' "$f"; done \
  | tar -C "$root" -cf - -T - | tar -C "$new" -xf -

# Build both sides before the first timed run, so neither pays for it.
for side in "$wt" "$new"; do
  DUNE_CACHE=disabled dune build --root "$side" --no-print-directory --display quiet \
    ./benchsuite/suite.exe
done

# run SIDE_DIR OUT: one untraced run; its own output is not needed.
run() {
  python3 "$1/benchsuite/run.py" --workload "$workload" --seed "$seed" \
    --seconds "$SECONDS_PER_RUN" --trace 0 --out "$2" > /dev/null
}

i=1
while [ "$i" -le "$PAIRS" ]; do
  echo "bench_pairs: pair $i/$PAIRS" >&2
  if [ $((i % 2)) -eq 1 ]; then
    run "$wt" "$tmp/base-$i.json"
    run "$new" "$tmp/new-$i.json"
  else
    run "$new" "$tmp/new-$i.json"
    run "$wt" "$tmp/base-$i.json"
  fi
  i=$((i + 1))
done

status=0
python3 "$new/benchsuite/run.py" compare "$tmp"/base-*.json vs "$tmp"/new-*.json \
  || status=$?
exit "$status"
