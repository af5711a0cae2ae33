"""Tests for the copy-free stage pipeline: consumed scratch spectra, no input writes."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from activescalar import (
    GridSpec,
    MultiplierSpec,
    SimulationState,
    SolverConfig,
    advect,
    apply_drift,
    build_symbol_table,
    cfl_dt,
    linearized_rhs,
    linf_norm,
    random_band_field,
    step,
    tangent_step,
    to_physical,
)
from activescalar.grid import _half_to_physical
from activescalar.tangent import TangentBundle, random_tangent_set


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def half_spectrum_stacks(draw):
    """A 2-D or 3-D grid (even N) and a stack of 1-9 half spectra, some entries zero."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([8, 10, 12, 16] if d == 3 else [8, 10, 16, 24, 32]))
    grid = GridSpec(d, n)
    rows = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows,) + grid.half_shape
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec[rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0.0
    return grid, spec


@settings(deadline=None, max_examples=60)
@given(half_spectrum_stacks())
def test_consuming_inverse_equals_irfftn_bit_for_bit(case):
    grid, spec = case
    expected = scipy.fft.irfftn(spec, s=grid.shape, axes=grid.axes, norm="forward")
    got = _half_to_physical(grid, spec.copy())
    assert got.shape == expected.shape
    assert np.array_equal(bits(got), bits(expected))


def test_consuming_inverse_refuses_read_only_input():
    grid = GridSpec(2, 16)
    f = random_band_field(grid, 1, 5, 1.0, 3)
    with pytest.raises(ValueError):
        _half_to_physical(grid, f.half)


def _exposed(*fields):
    """The stored arrays of the fields, made writeable where numpy allows.

    Read-only flags would turn a stray in-place write into an exception;
    unlocked, the byte comparison below is what catches it.
    """
    arrays = []
    for f in fields:
        for a in (f.half, f.coeffs):
            try:
                a.flags.writeable = True
            except ValueError:
                pass
            arrays.append(a)
    return arrays


CASES = [
    (GridSpec(2, 16), MultiplierSpec(kind="sqg"), False),
    (GridSpec(3, 12), MultiplierSpec(kind="mg", nu=0.5), True),
]


@pytest.mark.parametrize("grid, spec, zero_k3", CASES, ids=["sqg2d", "mg3d"])
@pytest.mark.parametrize(
    "op",
    ["to_physical", "linf1", "linf2", "apply_drift", "advect", "cfl_dt",
     "step", "tangent_step", "linearized_rhs"],
)
def test_operations_leave_inputs_unchanged(grid, spec, zero_k3, op):
    table = build_symbol_table(spec, grid)
    # kmax 5 puts energy outside the 2/3 band of the 12^3 grid, so step
    # takes its full-drift CFL path there
    theta = random_band_field(grid, 1, 5, 1.0, 11, zero_k3_plane=zero_k3)
    psi = random_band_field(grid, 1, 4, 0.3, 12, zero_k3_plane=zero_k3)
    S = random_band_field(grid, 1, 2, 0.5, 13, zero_k3_plane=zero_k3)
    u = apply_drift(table, psi)
    tangents = random_tangent_set(grid, 2, 14)
    cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=spec, t_end=1.0, dt=1e-3)
    watched = _exposed(theta, psi, S, *u.components, *tangents)
    watched += [table.values, table.half_values]
    before = [a.tobytes() for a in watched]

    calls = {
        "to_physical": lambda: to_physical(theta),
        "linf1": lambda: linf_norm(theta, oversample=1),
        "linf2": lambda: linf_norm(theta, oversample=2),
        "apply_drift": lambda: apply_drift(table, theta),
        "advect": lambda: advect(u, theta),
        "cfl_dt": lambda: cfl_dt(u, grid),
        "step": lambda: step(SimulationState(t=0.0, theta=theta), cfg, S, table),
        "tangent_step": lambda: tangent_step(
            TangentBundle(base=SimulationState(t=0.0, theta=theta), tangents=tangents),
            cfg, S, table,
        ),
        "linearized_rhs": lambda: linearized_rhs(theta, psi, cfg, table),
    }
    calls[op]()
    calls[op]()  # a second call sees the same inputs
    assert [a.tobytes() for a in watched] == before


def test_step_traced_peak_within_stage_budget():
    # one steady-state band-limited mg 24^3 etdrk2 step: the numpy-traced
    # peak fits the stage half stack (theta + d drifts), its physical
    # samples, the d flux spectra and a few more half spectra (state,
    # stage values, the stepper combinations); copies of the stage stack,
    # a separate flux array or |u| temporaries do not fit
    grid = GridSpec(3, 24)
    mg = MultiplierSpec(kind="mg", nu=0.5)
    table = build_symbol_table(mg, grid)
    theta = random_band_field(grid, 1, 6, 1.0, 21, zero_k3_plane=True)
    S = random_band_field(grid, 1, 2, 0.5, 22, zero_k3_plane=True)
    cfg = SolverConfig(kappa=0.1, gamma=2.0, drift=mg, t_end=1.0, dt=0.01)
    state = step(SimulationState(t=0.0, theta=theta), cfg, S, table)  # warm caches

    d = grid.dimension
    half = np.prod(grid.half_shape) * np.dtype(np.complex128).itemsize
    phys = np.prod(grid.shape) * np.dtype(np.float64).itemsize
    budget = (d + 1) * half + (d + 1) * phys + d * half + 3 * half

    tracemalloc.start()
    try:
        step(state, cfg, S, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget, (peak, budget)
