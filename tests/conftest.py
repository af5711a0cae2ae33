"""Shared fixtures."""

import numpy.fft
import pytest
import scipy.fft


@pytest.fixture
def fft_counter(monkeypatch):
    """Install counting wrappers on the numpy and scipy FFT entry points.

    ``fft_counter(grid)`` returns a dict that then tallies every wrapped
    call ("calls"), complex transforms ("complex") and real fields of the
    grid's lattice moved by ``scipy.fft.rfftn``/``irfftn`` ("real").
    """

    def install(grid):
        counts = {"calls": 0, "real": 0, "complex": 0}
        lattice = grid.modes_per_axis**grid.dimension

        def counting(fn, real_side):
            def wrapped(x, *args, **kwargs):
                out = fn(x, *args, **kwargs)
                counts["calls"] += 1
                if real_side is None:
                    counts["complex"] += 1
                else:
                    real = numpy.asarray(x) if real_side == "input" else out
                    counts["real"] += real.size // lattice
                return out

            return wrapped

        for mod in (numpy.fft, scipy.fft):
            for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                         "rfft", "irfft", "rfft2", "irfft2"):
                monkeypatch.setattr(mod, name, counting(getattr(mod, name), None))
        monkeypatch.setattr(scipy.fft, "rfftn", counting(scipy.fft.rfftn, "input"))
        monkeypatch.setattr(scipy.fft, "irfftn", counting(scipy.fft.irfftn, "output"))
        return counts

    return install
