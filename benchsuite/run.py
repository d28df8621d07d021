#!/usr/bin/env python3
"""Build the benchmark suite from source, then run it in a fresh process.

Usage, from the repository root:

    python3 benchsuite/run.py --workload W --seed S --seconds N --trace 0|1 [--out F] [--chrome F]
    python3 benchsuite/run.py compare BASE.json... vs NEW.json...

Every argument is passed unchanged to benchsuite/suite.exe (see
README.md). The build goes to _build/ with dune's shared cache off, so
nothing is read or written outside the checkout. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "benchsuite", "suite.exe")
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./benchsuite/suite.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("run.py: building the suite failed")
    try:
        suite = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: the suite ran past {RUN_TIMEOUT_S} s")
    sys.exit(suite.returncode)


if __name__ == "__main__":
    main()
