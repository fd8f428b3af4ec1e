"""Timing of a round's calls against the machine's current speed.

The machine the benchmark runs on may share its processors with other
work, so the same call can take twice as long from one second to the
next. ``Clock`` runs a fixed reference computation, apart from the
program, before every timed call and once after the last. A call's
adjacent reference time is the mean of the two references around it.
Times are reported at the nominal machine speed: a duration is scaled by
the reference's nominal time over its adjacent reference time, so a
slowdown that hits the program and the reference alike cancels out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.special import erf


def _integer_loop() -> None:
    x = 12345
    for _ in range(20000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF


_SMALL = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_BIG = np.linspace(-3.0, 3.0, 90000).reshape(300, 300)


def interpreter_reference() -> None:
    """Python overhead: an integer loop and numpy calls on tiny arrays."""
    _integer_loop()
    for _ in range(1400):
        np.exp(_SMALL @ _SMALL.T + _SMALL).sum(axis=-1, keepdims=True)


def kernel_reference() -> None:
    """Numpy kernels: an integer loop, then a matrix product and
    elementwise erf and exp on a large array."""
    _integer_loop()
    for _ in range(3):
        _BIG @ _BIG
        erf(_BIG) + np.exp(-_BIG * _BIG)


# Reference computations, none of which uses the program, and the time
# each takes at the nominal machine speed: about its median on the 2-CPU
# x86 machine the reference figures come from. The speed a slowdown leaves
# depends on the code, so each workload names the reference whose mix of
# Python overhead and numpy kernels is closest to its own.
REFERENCES = {
    "interpreter": (interpreter_reference, 0.016),
    "kernels": (kernel_reference, 0.020),
}


@dataclass
class Segment:
    phase: str          # "setup", "task" or "infer"
    seconds: float
    ref_index: int      # the reference measured just before the call
    items: int = 0      # work the call did (set by the caller)


class Clock:
    """Times calls against the named reference; ``tracer``, when given, is
    told the phase of each call."""

    def __init__(self, reference: str, tracer=None):
        self._reference, self.nominal = REFERENCES[reference]
        self.tracer = tracer
        self.references: list[float] = []
        self.segments: list[Segment] = []

    def _measure_reference(self) -> None:
        start = time.perf_counter()
        self._reference()
        self.references.append(time.perf_counter() - start)

    @contextmanager
    def timing(self, phase: str):
        """Time the block as one call of ``phase``; yields its Segment."""
        self._measure_reference()
        if self.tracer is not None:
            self.tracer.phase = phase
        segment = Segment(phase, 0.0, len(self.references) - 1)
        start = time.perf_counter()
        try:
            yield segment
        finally:
            segment.seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.phase = None
            self.segments.append(segment)

    def close(self) -> None:
        """Measure the reference after the last call."""
        self._measure_reference()

    def adjacent_reference(self, segment: Segment) -> float:
        i = segment.ref_index
        return 0.5 * (self.references[i] + self.references[i + 1])

    def nominal_seconds(self, segment: Segment) -> float:
        """The segment's duration at the nominal machine speed."""
        return segment.seconds * self.nominal / self.adjacent_reference(segment)


def totals(clocks, phase: str | None = None):
    """(items, seconds, scale) over the segments of ``phase`` (all phases
    when None) in ``clocks``; ``scale``, nominal over adjacent reference
    time, is averaged with the segments' durations as weights."""
    items = seconds = weighted = 0.0
    for clock in clocks:
        for seg in clock.segments:
            if phase is None or seg.phase == phase:
                items += seg.items
                seconds += seg.seconds
                weighted += (seg.seconds * clock.nominal
                             / clock.adjacent_reference(seg))
    return items, seconds, weighted / seconds


def nominal_rate(clocks, phase: str) -> float:
    """Items of ``phase`` per second at the nominal machine speed."""
    items, seconds, scale = totals(clocks, phase)
    return items / (seconds * scale)


def nominal_total_seconds(clocks) -> float:
    """Time of every segment in ``clocks`` at the nominal machine speed."""
    _, seconds, scale = totals(clocks)
    return seconds * scale
