"""Shared fixtures."""

import numpy.fft
import pytest
import scipy.fft


@pytest.fixture
def fft_counter(monkeypatch):
    """Install counting wrappers on the numpy and scipy FFT entry points.

    ``fft_counter(grid)`` returns a dict that then tallies every wrapped
    call ("calls"), complex transforms ("complex") and real fields of the
    grid's lattice moved by ``scipy.fft.rfftn``/``irfftn`` ("real").  A
    ``scipy.fft.ifftn`` over the leading lattice axes of a half-spectrum
    stack followed by a last-axis ``scipy.fft.irfft`` back to the lattice is
    the two-call form of ``irfftn``: it counts as the real fields it moves.
    """

    def install(grid):
        counts = {"calls": 0, "real": 0, "complex": 0}
        lattice = grid.modes_per_axis**grid.dimension
        d = grid.dimension
        pending = []  # half spectra left by leading-axes ifftn calls

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

        def leading_ifftn(fn):
            def wrapped(x, *args, **kwargs):
                out = fn(x, *args, **kwargs)
                counts["calls"] += 1
                axes = kwargs.get("axes")
                half_stack = numpy.shape(x)[-d:] == grid.half_shape
                if half_stack and axes is not None and tuple(axes) == grid.axes[:-1]:
                    pending.append(out.size)
                else:
                    counts["complex"] += 1
                return out

            return wrapped

        def last_axis_irfft(fn):
            def wrapped(x, *args, **kwargs):
                out = fn(x, *args, **kwargs)
                counts["calls"] += 1
                if pending and pending[-1] == numpy.size(x) and out.shape[-d:] == grid.shape:
                    pending.pop()
                    counts["real"] += out.size // lattice
                else:
                    counts["complex"] += 1
                return out

            return wrapped

        real_entry_points = {
            "ifftn": leading_ifftn(scipy.fft.ifftn),
            "irfft": last_axis_irfft(scipy.fft.irfft),
            "rfftn": counting(scipy.fft.rfftn, "input"),
            "irfftn": counting(scipy.fft.irfftn, "output"),
        }
        for mod in (numpy.fft, scipy.fft):
            for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                         "rfft", "irfft", "rfft2", "irfft2"):
                monkeypatch.setattr(mod, name, counting(getattr(mod, name), None))
        for name, fn in real_entry_points.items():
            monkeypatch.setattr(scipy.fft, name, fn)
        return counts

    return install
