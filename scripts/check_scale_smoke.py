#!/usr/bin/env python3
"""Compare a fresh scale-smoke record with the committed one, bit for bit.

    python3 scripts/check_scale_smoke.py [FRESH [REFERENCE]]

FRESH defaults to BENCH_perf_scale.json (as `make perf-scale-smoke`
writes it); REFERENCE defaults to the committed file,
`git show HEAD:BENCH_perf_scale.json`. For every workload of the
reference, the bracket (`lower`, `upper`), the phase count and the
number of shortest-path trees (`counters.dijkstra.runs`) must be equal:
a solve that is meant to keep its brackets bit-identical runs the same
trajectory, so any difference is a change in the solver's arithmetic or
tie-breaking. Timings, allocation and RSS are not compared. Exits 1 on
any difference, 2 on a missing or unreadable file.
"""

import json
import subprocess
import sys

FIELDS = [
    ("lower", lambda w: w.get("lower")),
    ("upper", lambda w: w.get("upper")),
    ("phases", lambda w: w.get("phases")),
    ("dijkstra.runs", lambda w: w.get("counters", {}).get("dijkstra.runs")),
]


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    fresh_path = argv[1] if len(argv) > 1 else "BENCH_perf_scale.json"
    try:
        fresh = load(fresh_path)
        if len(argv) > 2:
            ref = load(argv[2])
        else:
            ref = json.loads(
                subprocess.run(
                    ["git", "show", "HEAD:BENCH_perf_scale.json"],
                    check=True,
                    capture_output=True,
                    text=True,
                ).stdout
            )
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"check_scale_smoke: {e}", file=sys.stderr)
        return 2
    if fresh.get("mode") != ref.get("mode"):
        print(
            f"check_scale_smoke: mode {fresh.get('mode')!r} vs committed "
            f"{ref.get('mode')!r}",
            file=sys.stderr,
        )
        return 1
    diffs = []
    for name, ref_w in ref.get("workloads", {}).items():
        fresh_w = fresh.get("workloads", {}).get(name)
        if fresh_w is None:
            diffs.append(f"{name}: missing from {fresh_path}")
            continue
        for field, get in FIELDS:
            want, got = get(ref_w), get(fresh_w)
            if want is None or got != want:
                diffs.append(f"{name}.{field}: {got!r}, committed {want!r}")
    for d in diffs:
        print(f"check_scale_smoke: {d}", file=sys.stderr)
    if diffs:
        return 1
    print(
        "check_scale_smoke: brackets, phases and tree counts equal the "
        "committed record"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
