"""Host-speed probe: wall time of a pass scaled to a reference host speed.

On shared machines the same Python code runs up to 2x slower from one
second to the next, and for stretches of 30 s and more, while CPU time
tracks wall time.  No statistic over the few passes that fit in a run
removes that.  So while a command runs, a profiling-timer signal fires
every ``INTERVAL_S`` of CPU time and runs a fixed probe of about 0.4 ms
on the same CPU, between the command's own bytecodes.  The mean probe time
during the command measures the host's speed while the command ran, and
the command's time (minus the probes) is scaled to the speed where one
probe takes ``REFERENCE_S``.  The probe mimics what netgap spends its time
on (row reduction over a small prime field that builds new lists, big-int
bitsets, dict and tuple traffic) and uses none of netgap's code, so a
change to netgap never changes it.  It costs about 2% of a pass.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
REFERENCE_S = 400e-6


def _probe_work() -> int:
    p = 7
    acc = 0
    state = 12345
    for _ in range(2):
        rows = []
        for _ in range(6):
            row = []
            for _ in range(10):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                row.append(state % p)
            rows.append(row)
        r = 0
        for c in range(10):
            piv = next((i for i in range(r, 6) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            f = pow(rows[r][c], p - 2, p)
            rows[r] = [x * f % p for x in rows[r]]
            for i in range(6):
                if i != r and rows[i][c]:
                    g = rows[i][c]
                    rows[i] = [(a - g * b) % p for a, b in zip(rows[i], rows[r])]
            r += 1
        acc += r
    cand = (1 << 120) - 1
    while cand:
        v = (cand & -cand).bit_length() - 1
        cand &= ~(1 << v)
        acc += bin(cand & ((v * 2654435761) << 3)).count("1") & 1
    counts = {}
    for i in range(150):
        key = (i % 17, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return acc + len(counts)


class SpeedProbe:
    """Samples the probe on SIGPROF while active; one instance per process."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_signal(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)


def at_reference(elapsed: float, inside: list[float], everything: list[float]) -> tuple[float, float]:
    """(seconds without the probes, seconds at the reference speed) of a
    stretch of work whose probe samples are ``inside``.  A stretch too short
    to hold a sample is scaled by the speed over ``everything``."""
    seconds = elapsed - sum(inside)
    basis = inside or everything
    if not basis:
        return seconds, seconds
    return seconds, seconds * REFERENCE_S / (sum(basis) / len(basis))
