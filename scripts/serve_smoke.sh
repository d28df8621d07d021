#!/bin/sh
# End-to-end smoke of the three ndjson fronts. One input (three
# requests, two of them the same request under the aliases rm1 and rm,
# plus a blank line, a comment line and a malformed line) goes through
# `topobench serve`, `topobench batch` (from a file) and `topobench pool
# --workers 2`. Each front must answer the same multiset of request
# hashes (three) with exactly one typed bad_request, `serve` must
# answer exactly one request from its cache, with the very "result"
# bytes of the miss that filled it (solve_ms included), and `batch`
# must report the rejected line as "1 error(s)" on stderr.
#
#   sh scripts/serve_smoke.sh [path/to/topobench_cli.exe]
set -eu

exe="${1:-_build/default/bin/topobench_cli.exe}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

printf '%s\n' \
  '{"topo":{"spec":"hypercube:2"},"tm":{"named":"rm1"}}' \
  '' \
  '# a comment line' \
  '{"topo":{"spec":"hypercube:2"},"tm":{"named":"lm"}}' \
  'not json' \
  '{"topo":{"spec":"hypercube:2"},"tm":{"named":"rm"}}' > "$tmp/in.ndjson"

"$exe" serve < "$tmp/in.ndjson" > "$tmp/serve.out"
"$exe" batch "$tmp/in.ndjson" > "$tmp/batch.out" 2> "$tmp/batch.err"
"$exe" pool --workers 2 < "$tmp/in.ndjson" > "$tmp/pool.out"

fail() {
  echo "serve-smoke: $1"
  for f in serve batch pool; do echo "--- $f"; cat "$tmp/$f.out"; done
  exit 1
}

for f in serve batch pool; do
  grep -o '"hash":"[0-9a-f]*"' "$tmp/$f.out" | sort > "$tmp/$f.hashes"
  [ "$(wc -l < "$tmp/$f.hashes")" -eq 3 ] || fail "$f: expected 3 hashes"
  [ "$(grep -c '"code":"bad_request"' "$tmp/$f.out")" -eq 1 ] \
    || fail "$f: expected exactly one bad_request"
done
cmp -s "$tmp/serve.hashes" "$tmp/batch.hashes" \
  || fail "batch answered other hashes than serve"
cmp -s "$tmp/serve.hashes" "$tmp/pool.hashes" \
  || fail "pool answered other hashes than serve"
[ "$(grep -c '"cached":true' "$tmp/serve.out")" -eq 1 ] \
  || fail "serve: expected exactly one cache hit"
hit=$(grep '"cached":true' "$tmp/serve.out")
hash=$(printf '%s\n' "$hit" | grep -o '"hash":"[0-9a-f]*"')
miss=$(grep -F "$hash" "$tmp/serve.out" | grep '"cached":false') \
  || fail "serve: no miss line for the cached hash"
result_bytes() { printf '%s\n' "$1" | sed -n 's/^.*"result":\(.*\)}$/\1/p'; }
[ -n "$(result_bytes "$miss")" ] \
  && [ "$(result_bytes "$hit")" = "$(result_bytes "$miss")" ] \
  || fail "serve: the cache hit's result bytes differ from its miss's"
grep -q ' 1 error(s)' "$tmp/batch.err" \
  || fail "batch: expected \"1 error(s)\" on stderr, got: $(cat "$tmp/batch.err")"

echo "serve-smoke: OK (serve, batch, pool: 3 hashes, 1 bad_request each; 1 cache hit with its miss's bytes)"
