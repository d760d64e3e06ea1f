"""One cold set-up of an in-process workload, in a fresh interpreter.

Usage: ``python perfbench/setup_child.py WORKLOAD SEED WORKDIR``

Readies the workload as ``run.py`` does before its first timed op
(``prepare()``: imports, class enumeration, the warm-up op and, for the
warm workload, writing its store under ``WORKDIR``) and prints the raw
seconds that took.  The process has not run the program before, so the
set-up pays every first-use cost the program has.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = WORKLOADS[name](seed, workdir)
    start = time.perf_counter()
    workload.prepare()
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
