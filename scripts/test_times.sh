#!/bin/sh
# Run every test suite once (dune runtest --force), then print each
# alcotest suite's name and wall time, slowest first, and the wall time
# of the whole run. The times are alcotest's own "Test Successful in
# Ns" (or "N failures! in Ns") lines; dune prints each suite's output
# in one block, so the "Testing `name'." line above a time names it.
# Exits with dune runtest's status.
#
#   sh scripts/test_times.sh
set -u

log=$(mktemp)
status=$(mktemp)
trap 'rm -f "$log" "$status"' EXIT

start=$(date +%s)
{ dune runtest --force 2>&1; echo $? > "$status"; } | tee "$log"
end=$(date +%s)

echo
echo "test-times: alcotest suites, slowest first"
sed 's/\x1b\[[0-9;]*m//g' "$log" | awk '
  /^Testing `/ { name = $2; sub(/^`/, "", name); sub(/'\''\.$/, "", name) }
  / in [0-9.]+s\. [0-9]+ tests? run\./ {
    for (i = 1; i < NF; i++) if ($i == "in") t = $(i + 1)
    sub(/s\.$/, "", t)
    printf "%10.3f s  %s\n", t, name
  }' | sort -rn
echo "test-times: dune runtest --force took $((end - start)) s wall"

st=$(cat "$status")
exit "${st:-1}"
