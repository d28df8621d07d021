#!/bin/sh
# Regenerate one benchsuite workload's golden brackets from the working
# tree and compare them byte for byte with the committed file:
#
#   scripts/golden_bits.sh WORKLOAD
#
# The working tree (tracked files and untracked ones git does not
# ignore) is copied to a temporary directory, and `benchsuite/run.py
# --regen-golden --seed 42` builds and runs there, so nothing in the
# checkout is written, benchsuite/ included. Exits 1 if the regenerated
# file differs from benchsuite/golden/WORKLOAD.json. A change meant to
# keep every bracket bit-identical passes on all four workloads.
set -eu

[ "$#" -eq 1 ] || { echo "usage: $0 WORKLOAD" >&2; exit 2; }
workload=$1

root=$(git rev-parse --show-toplevel)
golden="benchsuite/golden/$workload.json"
[ -f "$root/$golden" ] || { echo "golden_bits: no $golden" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

# Files deleted from the working tree but still in the index are skipped.
git -C "$root" ls-files --cached --others --exclude-standard \
  | while IFS= read -r f; do [ -e "$root/$f" ] && printf '%s\n' "$f"; done \
  | tar -C "$root" -cf - -T - | tar -C "$tmp" -xf -

python3 "$tmp/benchsuite/run.py" --workload "$workload" --seed 42 --regen-golden \
  > "$tmp/regen.out"
tail -n 1 "$tmp/regen.out" >&2

if cmp "$tmp/$golden" "$root/$golden"; then
  echo "golden_bits: $workload brackets bit-identical to $golden"
else
  echo "golden_bits: $workload brackets differ from $golden" >&2
  exit 1
fi
