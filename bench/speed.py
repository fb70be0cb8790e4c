"""Machine speed, sampled with a fixed reference loop, and op times rescaled by it.

The shared host the benchmark runs on changes speed by up to 2x over
seconds to minutes, because other tenants contend for the same cores and
caches.  Wall-clock op times then spread more between runs than any change
worth detecting.  So the benchmark times a fixed reference loop, which does
the same kinds of work as the program (interpreted arithmetic, Python-level
parsing, numpy calls), for about 0.1 s once a second: between ops, and
inside an op before a call through a hooked binding of the program once a
second has passed.  An op's time excludes the samples taken inside it, and
is rescaled by ``REFERENCE_S`` over the mean reference time of the samples
taken inside it and the nearest ones before and after it.  The result is
the op's duration on a machine where the reference loop takes
``REFERENCE_S`` seconds.  The loop lives here, not in the program, so no
change to the program can move it.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

import numpy as np

# Median reference-loop time on a 2-vCPU x86-64 VM (2.1 GHz) in its fast
# state; rescaled op times are in seconds at that speed.
REFERENCE_S = 0.03

_M = np.linspace(-1.0, 1.0, 2000 * 20).reshape(2000, 20)
_V = np.linspace(0.5, -0.5, 20)
_LINE = ",".join(f"{v:.6f}" for v in np.linspace(-3.0, 3.0, 20))


def reference_loop() -> float:
    """A fixed amount of work; returns a checksum so none of it is skipped.

    Of the kinds of work tried, these three together tracked the program's
    op times best; small numpy calls alone tracked them worse.
    """
    acc = 0
    for i in range(180_000):
        acc += i * i
    for _ in range(450):
        acc += int((_M @ _V >= 0.0).sum())
    for _ in range(1350):  # CSV-style parsing
        acc += int(sum(float(c) for c in _LINE.split(",")))
    return float(acc)


class Speed:
    """Reference-loop samples over one run, and op times rescaled by them."""

    def __init__(self, every: float = 1.0, min_s: float = 0.1) -> None:
        self.every = every
        self.min_s = min_s
        self.samples: list[tuple[float, float, float]] = []  # (start, end, reference s)
        self.sampled_s = 0.0  # total time spent sampling

    def sample(self) -> None:
        """Time the reference loop at least 3 times and for at least ``min_s``."""
        start = time.perf_counter()
        reps = []
        while len(reps) < 3 or time.perf_counter() < start + self.min_s:
            t0 = time.perf_counter()
            reference_loop()
            reps.append(time.perf_counter() - t0)
        end = time.perf_counter()
        self.samples.append((start, end, statistics.median(reps)))
        self.sampled_s += end - start

    def maybe_sample(self) -> None:
        """Sample if ``every`` seconds have passed since the last sample ended."""
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= self.every:
            self.sample()

    @contextlib.contextmanager
    def hooked(self, owner, attr: str):
        """Sample when due before each call of ``owner.attr`` for the duration."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def hook(*args, **kwargs):
            self.maybe_sample()
            return original(*args, **kwargs)

        setattr(owner, attr, hook)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def reference_at(self, start: float, end: float) -> float:
        """Mean reference time of the samples inside an interval and the nearest outside."""
        before = [ref for _, e, ref in self.samples if e <= start][-1:]
        inside = [ref for s, e, ref in self.samples if s >= start and e <= end]
        after = [ref for s, _, ref in self.samples if s >= end][:1]
        near = before + inside + after
        return statistics.mean(near) if near else REFERENCE_S

    def rescale(self, starts: list[float], ends: list[float], times: list[float]) -> list[float]:
        return [dt * REFERENCE_S / self.reference_at(t0, t1)
                for t0, t1, dt in zip(starts, ends, times)]

    def median_reference(self) -> float:
        return statistics.median(ref for _, _, ref in self.samples) if self.samples else 0.0
