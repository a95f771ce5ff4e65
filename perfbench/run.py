#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (shared build cache off, so nothing
is written outside the checkout), then runs it with the same arguments.
Its standard output, whose last line is the result JSON, passes through
unchanged and its exit code is returned.  Outside a repository checkout
(no dune-project and lib/ next to perfbench/) the script fails before
printing anything.
"""

import os
import subprocess
import sys

TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a repository checkout "
                 "(dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
