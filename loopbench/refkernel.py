"""Fixed numpy reference kernel, timed beside the measured work.

One kernel call is the inner step of a diffractive forward pass at the
workload's grid size: a complex transmission ``exp(log_amp + i phase)``, a
pointwise product, an orthonormal 2-d FFT, a transfer-function multiply and
the inverse FFT. Its inputs are fixed arrays that do not depend on the
workload seed, so its cost depends only on the machine.

``REF_MS`` holds the per-call time of this kernel recorded when the
benchmark was built (see README.md). A run divides the kernel time it
measures by that figure to get ``r``, how much slower the machine is now
than then, and reports every rate multiplied by ``r`` and every latency
divided by it.

The machine's speed drifts within seconds, so the kernel is sampled during
the measured work itself: :class:`Sampler` runs one kernel block on a timer
signal every ``INTERVAL_S`` in the main thread, between two bytecodes of
the measured code, and its :meth:`Sampler.clock` leaves out the time those
blocks take.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from contextlib import contextmanager

import numpy as np

# median per-call milliseconds of 40 blocks, measured when the benchmark was built
REF_MS = {64: 0.4494, 256: 10.336}

# calls per timed block: about 15-20 ms of work at either size
BLOCK_CALLS = {64: 50, 256: 3}
# calls per block between two predicted frames
FRAME_CALLS = {64: 10, 256: 1}
INTERVAL_S = 0.25

# median microseconds per file written and per file read by the file probe,
# seen inside the gen and load stages when the benchmark was built
REF_IO_US = {64: (650.0, 15.0), 256: (870.0, 36.0)}
IO_FILES = 20


class RefKernel:
    """The reference kernel at one grid size, with fixed inputs."""

    def __init__(self, n: int):
        if n not in REF_MS:
            raise ValueError(f"no reference time recorded for grid size {n}")
        g = np.random.Generator(np.random.PCG64(20240601))
        self.n = n
        self.u = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        self.log_amp = -0.1 * g.random((n, n))
        self.phase = 2.0 * np.pi * g.random((n, n))
        f = np.fft.fftfreq(n)
        self.h = np.exp(-1j * np.pi * n * (f[:, None] ** 2 + f[None, :] ** 2))
        self.calls = BLOCK_CALLS[n]
        self.samples_ms: list[float] = []  # every block of the run, in order

    def call(self) -> np.ndarray:
        t = np.exp(self.log_amp + 1j * self.phase)
        spec = np.fft.fft2(self.u * t, norm="ortho")
        return np.fft.ifft2(spec * self.h, norm="ortho")

    def block(self, calls: int | None = None) -> float:
        """Time one block of calls; return milliseconds per call."""
        calls = calls or self.calls
        t0 = time.perf_counter()
        for _ in range(calls):
            self.call()
        ms = (time.perf_counter() - t0) * 1e3 / calls
        self.samples_ms.append(ms)
        return ms

    def ratio(self, ms: float) -> float:
        """``r``: this run's kernel time over the recorded reference time."""
        return ms / REF_MS[self.n]


class IoProbe:
    """The file operations of a dataset, on files of one sample image's size.

    A block writes ``IO_FILES`` files the way the program does (temporary
    sibling, write, rename over the final name), reads each back, and
    deletes them. The file system's speed on this machine swings by a factor
    of two independently of the processor's, so the stages that write and
    read sample files are corrected by this probe as well as by the kernel.
    """

    def __init__(self, n: int, directory: str):
        self.n = n
        self.directory = directory
        header = f"P5\n{n} {n}\n65535\n".encode("ascii")
        self.data = header + bytes(range(256)) * (2 * n * n // 256)

    def block(self) -> tuple[float, float]:
        """Microseconds per file written and per file read."""
        paths = [os.path.join(self.directory, f"probe-{i}.pgm") for i in range(IO_FILES)]
        t0 = time.perf_counter()
        for path in paths:
            fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".tmp-", suffix="~")
            with os.fdopen(fd, "wb") as fh:
                fh.write(self.data)
            os.replace(tmp, path)
        t1 = time.perf_counter()
        for path in paths:
            with open(path, "rb") as fh:
                fh.read()
        t2 = time.perf_counter()
        for path in paths:
            os.unlink(path)
        return (t1 - t0) * 1e6 / IO_FILES, (t2 - t1) * 1e6 / IO_FILES


class Sampler:
    """Kernel blocks interleaved with the measured work, and a clock without them."""

    def __init__(self, kernel: RefKernel, io: IoProbe, interval: float = INTERVAL_S):
        self.kernel = kernel
        self.io = io
        self.io_on = False
        self.interval = interval
        self.paused = 0.0
        self.io_us: list[tuple[float, float]] = []

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in kernel blocks."""
        return time.perf_counter() - self.paused

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.kernel.block()
        if self.io_on:
            self.io_us.append(self.io.block())
        self.paused += time.perf_counter() - t0

    @contextmanager
    def excluded(self):
        """Leave the block's wall time, kernel blocks included, out of :meth:`clock`."""
        paused, t0 = self.paused, time.perf_counter()
        try:
            yield
        finally:
            self.paused = paused + (time.perf_counter() - t0)

    @contextmanager
    def running(self):
        """Sample every ``interval`` seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
