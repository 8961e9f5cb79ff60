"""Host speed, read from a fixed reference kernel timed during the calls.

A shared VM changes speed within seconds: on a 2-vCPU x86-64 VM the
kernel below took either ~22 ms or ~12 ms, switching several times a
minute, and the same 64-restart maximize_svetlichny call took 2.97 s to
4.73 s in runs minutes apart.  The kernel is the same kind of work as
svl's optimizer loop, Python driving numpy on 3-vectors, and shares no
code with svl, so its time follows the host and not the program.

An interval timer (SIGALRM) samples the kernel every EVERY_S of call
time, also in the middle of a call: the handler runs between two
bytecodes of svl's code, and the time it takes is not counted as call
time.  The samples cut each call into segments, and each segment is
scaled by NOMINAL_MS over the mean of the samples at its two ends.  A
call then reads as on a host where the kernel takes NOMINAL_MS, and a
change to svl moves it as much as it moves the unscaled time.  Samples
taken only between calls would miss a speed switch inside one 7 s
maximize call.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

NOMINAL_MS = 20.0   # the kernel's usual time on the VM above, rounded
EVERY_S = 0.25      # call time between two samples
_M = np.arange(27.0).reshape(3, 3, 3) / 27.0


def kernel(steps: int = 1500) -> float:
    """A fixed chain of small numpy operations: contract the tensor _M
    with unit vectors built from twelve angles, nudging one angle each
    step."""
    x = np.linspace(0.1, 3.0, 12)
    acc = 0.0
    for i in range(steps):
        th, ph = x[0::2], x[1::2]
        st = np.sin(th)
        v = np.empty((6, 3))
        v[:, 0] = st * np.cos(ph)
        v[:, 1] = st * np.sin(ph)
        v[:, 2] = np.cos(th)
        k = _M @ v[4]
        acc += float(v[0] @ (k @ (v[2] + v[3])))
        x[i % 12] += 1e-3
    return acc


class Speed:
    """Kernel samples (ms) and the call segments they bound."""

    def __init__(self):
        self.samples: list[float] = []
        # One list per call: (segment ms, index of the sample before it).
        self.calls: list[list[tuple[float, int]]] = []
        self._left = EVERY_S     # call time until the next sample
        self._segments = None    # the open call's segments
        self._start = 0.0        # start of the open segment

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((time.perf_counter() - start) * 1e3)

    def _cut(self, segments) -> None:
        segments.append(((time.perf_counter() - self._start) * 1e3,
                         len(self.samples) - 1))

    def _tick(self, signum, frame) -> None:
        # One-shot timer, re-armed after the sample, so ticks never nest
        # and stop once the call has closed.
        if self._segments is not None:
            self._cut(self._segments)
            self.sample()
            self._start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    @contextlib.contextmanager
    def call(self):
        """Time the call made in the with-block, sampling inside it.

        The SIGALRM handler stays installed afterwards: a tick still
        pending when the call closes then does nothing."""
        segments = self._segments = []
        signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._left)
        try:
            yield
        finally:
            self._segments = None
            self._left = signal.setitimer(signal.ITIMER_REAL, 0)[0] or EVERY_S
            self._cut(segments)
            self.calls.append(segments)

    def last_ms(self) -> float:
        """The last call's time, samples taken inside it excluded."""
        return sum(ms for ms, _ in self.calls[-1])

    def finish(self) -> None:
        """Sample after the last call unless that is done already."""
        if self.calls and self.calls[-1][-1][1] == len(self.samples) - 1:
            self.sample()

    def scaled(self) -> list[float]:
        """Each call's ms, every segment times NOMINAL_MS over the mean
        of the samples at its ends."""
        return [sum(ms * 2.0 * NOMINAL_MS / (self.samples[i] + self.samples[i + 1])
                    for ms, i in segments)
                for segments in self.calls]
