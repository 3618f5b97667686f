import numpy as np
import pytest

from chaospip import Frame, keystream

from synthimg import standard_test_frames


def pytest_report_header(config):
    """Name the kernel the suite runs on, which depends on the host's compiler,
    and numpy's version. corr2d's oracle moments are that numpy's own sums,
    and the native moments copy its pairwise summation order; a numpy that
    sums in another order fails the load probe, so the kernel reads python."""
    return f"chaospip kernel: {keystream.BACKEND}, numpy {np.__version__}"


@pytest.fixture(scope="session")
def table1_frames():
    """The five standard 512x512 grayscale test images (real or stand-in)."""
    return standard_test_frames()


@pytest.fixture
def make_frame():
    """Factory for random frames: make_frame(rng, width, height, channels)."""

    def _make(rng: np.random.Generator, width: int, height: int, channels: int) -> Frame:
        data = rng.integers(0, 256, size=width * height * channels, dtype=np.uint8)
        return Frame(width, height, channels, data.tobytes())

    return _make
