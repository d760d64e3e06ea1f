"""Calibrated timing: host-speed scaling, op samples and their summary.

The host's speed drifts by tens of percent within a minute, so raw wall
clock cannot compare two runs.  A fixed pure-Python calibration loop is
timed before the first op, again whenever :data:`CALIB_INTERVAL_S` has
passed, and after the last op.  An op's calibrated time is its raw time
scaled by ``REF_CALIB_S / c``, where ``c`` is the median of the
calibration samples taken around it (see :meth:`Calibrator.scale`).
Calibrated seconds are therefore "seconds on a host whose calibration
loop takes ``REF_CALIB_S``".
"""

from __future__ import annotations

import marshal
import math
import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

#: Calibration sample measured on the 2-core host the benchmark was
#: written on (Python 3.11).  Only ratios to it matter; it is fixed so
#: that calibrated numbers from different runs share one scale.
REF_CALIB_S = 0.03

#: Longest stretch of ops between two calibration samples.
CALIB_INTERVAL_S = 1.0

#: Loops per calibration sample; the sample is their mean.
CALIB_REPEATS = 2

#: Entries in the list the calibration loop reads at random: a few MB,
#: more than a core's L2 cache holds.
CALIB_TABLE_SIZE = 100_000

_CALIB_SOURCE = "\n".join(
    f"def f{i}(x, y=({i}, 'k{i}')):\n"
    f"    z = [x * {i} + k for k in range(y[0])]\n"
    f"    return {{'a': z, 'b': frozenset(z), 'c': (x, y)}}\n"
    for i in range(120)
)


def calibration_loop(table: Sequence[int]) -> int:
    """Fixed pure-Python work whose duration tracks the host's speed.

    It mixes three kinds of work the program does: frozenset and dict
    churn on a small working set (the CSP's view index), random reads
    from ``table`` (scans over large row lists), and compiling and
    unmarshalling a fixed source (interpreter start-up and imports).
    The mix tracks op time better than the first part alone (see
    NOTES.md).
    """
    index: dict = {}
    acc = 0
    for i in range(10_000):
        m = (i * 2654435761) & 0xFFFFF
        view = frozenset(((m & 3, i & 1), (m >> 2 & 3, i >> 1 & 1)))
        acc += index.setdefault(view, len(index))
        acc ^= (m | m >> 5).bit_count()
    rows: dict = {}
    size = len(table)
    for i in range(12_000):
        j = (i * 2654435761) % size
        v = table[j]
        acc += rows.setdefault((v & 1023, i & 3), j) & 7
        acc ^= (v | v << 40).bit_count()
    for _ in range(2):
        code = compile(_CALIB_SOURCE, "<calibration>", "exec")
        acc += len(marshal.loads(marshal.dumps(code)).co_consts)
    return acc


def measure_calibration(
    work: Callable[[], object],
    clock: Callable[[], float] = time.perf_counter,
) -> float:
    """One calibration sample: the mean of :data:`CALIB_REPEATS` loops."""
    times = []
    for _ in range(CALIB_REPEATS):
        start = clock()
        work()
        times.append(clock() - start)
    return statistics.fmean(times)


class Calibrator:
    """Interleaved calibration samples and the scale they give each op.

    ``measure`` returns one calibration sample (raw seconds); ``clock``
    decides when the next one is due.  Both are injectable so tests can
    drive a fake host.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        measure: Callable[[], float] | None = None,
        reference: float = REF_CALIB_S,
    ):
        if measure is None:
            table = list(range(CALIB_TABLE_SIZE))
            measure = lambda: measure_calibration(  # noqa: E731
                lambda: calibration_loop(table), clock
            )
        self._clock = clock
        self._measure = measure
        self.reference = reference
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> int:
        """Take a calibration sample; returns its index."""
        self.samples.append(self._measure())
        self._last = self._clock()
        return len(self.samples) - 1

    def maybe_sample(self) -> None:
        """Take a sample if :data:`CALIB_INTERVAL_S` has passed since the
        last."""
        if self._clock() - self._last >= CALIB_INTERVAL_S:
            self.sample()

    @property
    def last_index(self) -> int:
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Factor for an op that ran after sample ``before``.

        The op is bracketed by that sample and the next one (the run
        always ends with a sample).  One sample jitters by 13 to 17% on
        a shared host, more than the host drifts between neighbouring
        samples, so the factor uses the median of the five samples
        before the op and the five after it.
        """
        window = self.samples[max(0, before - 4):before + 6]
        return self.reference / statistics.median(window)


@dataclass
class Sample:
    """One timed op: raw wall and CPU seconds, outcome, calibration."""

    raw_s: float
    cpu_s: float
    ok: bool
    calib: int
    scaled_s: float = 0.0


@dataclass
class Summary:
    """End-to-end numbers of one run, calibrated unless named raw."""

    attempted: int
    failed: int
    p50_s: float
    p90_s: float | None
    samples: int
    throughput_per_s: float
    raw_p50_s: float
    raw_throughput_per_s: float
    cpu_s: float
    wait_s: float
    calib_s: float

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def p90_with_tail(values: Sequence[float]) -> float | None:
    """Nearest-rank 90th percentile, or None unless ten samples lie beyond.

    With nearest rank the number of samples beyond the percentile is
    ``n - ceil(0.9 n)``, which reaches ten only from ``n = 100``.
    """
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def summarize(samples: list[Sample], calibrator: Calibrator) -> Summary:
    """Scale every sample and reduce the run to its end-to-end numbers.

    Latency and throughput use the ops that succeeded; throughput is ops
    completed per second of op time, which for one client in a closed
    loop is the reciprocal of the mean latency.
    """
    for s in samples:
        s.scaled_s = s.raw_s * calibrator.scale(s.calib)
    good = [s for s in samples if s.ok]
    if not good:
        raise RuntimeError("no op succeeded; nothing to summarize")
    scaled = [s.scaled_s for s in good]
    raw = [s.raw_s for s in good]
    return Summary(
        attempted=len(samples),
        failed=len(samples) - len(good),
        p50_s=statistics.median(scaled),
        p90_s=p90_with_tail(scaled),
        samples=len(good),
        throughput_per_s=len(good) / sum(scaled),
        raw_p50_s=statistics.median(raw),
        raw_throughput_per_s=len(good) / sum(raw),
        cpu_s=statistics.fmean(s.cpu_s for s in good),
        wait_s=statistics.fmean(max(s.raw_s - s.cpu_s, 0.0) for s in good),
        calib_s=statistics.median(calibrator.samples),
    )
