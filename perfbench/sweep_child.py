"""Traced child for ``sweep_n3_cold``: ``python -m repro`` plus spans.

Usage: ``python perfbench/sweep_child.py SPANS_OUT SPAWNED ARGV...``

``SPAWNED`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is CLOCK_MONOTONIC, shared by
all processes, so the ``import`` span runs from the parent's spawn to
the end of ``import repro``.  The child then installs the benchmark's
wrappers, calls ``repro.__main__.main(ARGV)`` and, when it returns,
writes the spans and the kernel-cache and store counter deltas to
``SPANS_OUT``.
"""

import sys
import time


def main() -> int:
    out_path, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import repro  # noqa: F401

    imported = time.perf_counter()
    import json

    import repro.store
    from perfbench.tracing import Installation, Recorder, Span
    from repro.engine import KERNEL_CACHE

    recorder = Recorder(time.perf_counter)
    recorder.add(Span("import", spawned, imported))
    installation = Installation(recorder)
    import repro.__main__ as cli

    cache0, store0 = KERNEL_CACHE.stats(), repro.store.RESULT_STORE.stats()
    code = cli.main(argv)
    sys.stdout.flush()
    cache1, store1 = KERNEL_CACHE.stats(), repro.store.RESULT_STORE.stats()
    with open(out_path, "w") as fh:
        json.dump({
            "spans": [
                [s.name, s.start, s.end, s.parent, s.counts]
                for s in recorder.spans
            ],
            "cache": [cache1.hits - cache0.hits, cache1.misses - cache0.misses],
            "store": [store1.hits - store0.hits, store1.misses - store0.misses,
                      store1.writes - store0.writes],
            "absent": installation.absent_layers,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
