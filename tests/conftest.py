import tracemalloc

import numpy as np
import pytest

from vortexao import GridSpec


@pytest.fixture
def grid64():
    return GridSpec(64, 0.01 / 64, 633e-9)


@pytest.fixture
def grid32():
    return GridSpec(32, 0.01 / 32, 633e-9)


@pytest.fixture
def grid16():
    return GridSpec(16, 0.01 / 16, 633e-9)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn)``: the peak bytes one ``fn()`` allocates, after a warm-up call.

    The warm-up lets the first call build and cache FFT plans and spectra.
    """

    def measure(fn) -> int:
        fn()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    return measure
