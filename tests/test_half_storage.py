"""Tests for fields that hold their half spectrum and build the lattice lazily."""

import dataclasses
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from activescalar import (
    GridSpec,
    MultiplierSpec,
    SimulationState,
    SolverConfig,
    SpectralField,
    apply_drift,
    build_symbol_table,
    cfl_dt,
    lyapunov_run,
    random_band_field,
    run,
    sobolev_norm,
    step,
)
from activescalar import grid as grid_mod
from activescalar.grid import _assert_invariants, _project_half
from activescalar.stepping import CFL_RECOMPUTE_EVERY, DT_MAX

SQG = MultiplierSpec(kind="sqg")
GRIDS = [GridSpec(2, 8), GridSpec(2, 10), GridSpec(3, 8)]


def reflect(a, axes):
    for ax in axes:
        a = np.roll(np.flip(a, axis=ax), 1, axis=ax)
    return a


def eager_from_half(grid, half):
    """The lattice conversion solver steps made before fields kept their half
    spectrum: project a copy of ``half`` and extend it to the full lattice."""
    n = grid.modes_per_axis
    lead = range(grid.dimension - 1)
    full = np.empty(grid.shape, dtype=np.complex128)
    top = full[..., : n // 2 + 1]
    np.multiply(half, grid.half_mode_mask, out=top)
    top[(0,) * grid.dimension] = 0.0
    plane = top[..., 0]
    plane[...] = 0.5 * (plane + np.conj(reflect(plane, lead)))
    full[..., n // 2 + 1 :] = np.conj(reflect(top[..., n // 2 - 1 : 0 : -1], lead))
    return full


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def half_stacks(draw):
    """A grid and a stack of 1-3 finite half spectra on it, signed zeros included."""
    grid = draw(st.sampled_from(GRIDS))
    shape = (draw(st.integers(1, 3)),) + grid.half_shape
    parts = arrays(np.float64, shape, elements=st.floats(-1e6, 1e6))
    return grid, draw(parts) + 1j * draw(parts)


def count_lattice_builds(monkeypatch):
    calls = []
    build = grid_mod._from_half

    def counting(grid, half):
        calls.append(half.shape)
        return build(grid, half)

    monkeypatch.setattr(grid_mod, "_from_half", counting)
    return calls


class TestProjectHalf:
    @settings(deadline=None)
    @given(half_stacks())
    def test_idempotent(self, case):
        # a second projection changes no value and no bit of a nonzero
        # entry; it may flip the sign of a zero
        grid, h = case
        once = _project_half(grid, h.copy())
        twice = _project_half(grid, once.copy())
        assert np.array_equal(twice, once)
        nonzero = once.view(np.float64) != 0.0
        assert np.array_equal(bits(twice.view(np.float64))[nonzero],
                              bits(once.view(np.float64))[nonzero])

    @settings(deadline=None)
    @given(half_stacks())
    def test_stack_rows_project_alone(self, case):
        grid, h = case
        stacked = _project_half(grid, h.copy())
        for row, raw in zip(stacked, h):
            assert np.array_equal(bits(row), bits(_project_half(grid, raw.copy())))

    @settings(deadline=None)
    @given(half_stacks())
    def test_lazy_lattice_equals_eager_conversion(self, case):
        grid, h = case
        for raw in h:
            f = SpectralField._of_half(grid, _project_half(grid, raw.copy()))
            eager = eager_from_half(grid, raw)
            assert np.array_equal(f.coeffs, eager)
            assert np.array_equal(bits(f.coeffs), bits(eager))  # checkpoint bytes
            _assert_invariants(grid, f.coeffs)
            assert np.array_equal(bits(grid.half(f.coeffs)), bits(f.half))


class TestFieldStorage:
    def test_lattice_built_once_on_first_read(self, monkeypatch):
        grid = GridSpec(2, 16)
        h = grid.half(random_band_field(grid, 1, 5, 1.0, 1).coeffs)
        f = SpectralField._of_half(grid, _project_half(grid, h))
        calls = count_lattice_builds(monkeypatch)
        assert calls == []
        first = f.coeffs
        assert f.coeffs is first
        assert len(calls) == 1

    def test_half_of_lattice_field_sliced_once(self):
        grid = GridSpec(3, 8)
        f = random_band_field(grid, 1, 3, 1.0, 2)
        assert f.half is f.half
        assert np.array_equal(bits(f.half), bits(f.coeffs[..., :5]))

    def test_fields_stay_immutable(self):
        grid = GridSpec(2, 16)
        h = grid.half(random_band_field(grid, 1, 5, 1.0, 3).coeffs)
        for f in (SpectralField._of_half(grid, _project_half(grid, h)),
                  random_band_field(grid, 1, 5, 1.0, 4)):
            with pytest.raises(ValueError):
                f.half[1, 1] = 0.0
            with pytest.raises(ValueError):
                f.coeffs[1, 1] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                f.grid = GridSpec(2, 8)

    def test_concurrent_first_reads_agree(self):
        # sweep members share fields across threads; a race on the lazy
        # build may only duplicate work, never hand out a different array
        grid = GridSpec(2, 16)
        raw = [grid.half(random_band_field(grid, 1, 7, 1.0, s).coeffs) for s in range(40)]
        expected = [eager_from_half(grid, h) for h in raw]
        fields = [SpectralField._of_half(grid, _project_half(grid, h.copy())) for h in raw]
        seen = [[] for _ in range(6)]

        def reader(out):
            out.extend(bits(f.coeffs) for f in fields)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(out,)) for out in seen]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in seen:
            assert all(np.array_equal(got, bits(want)) for got, want in zip(out, expected))
            assert len(out) == len(fields)

    @pytest.mark.parametrize("grid", [GridSpec(2, 16), GridSpec(3, 12)], ids=["2d", "3d"])
    def test_half_h1_weight_gives_h1_norm(self, grid):
        f = random_band_field(grid, 1, grid.modes_per_axis // 2, 1.0, 5)
        half_norm = np.sqrt(np.sum(grid.half_h1_weight * np.abs(f.half) ** 2))
        assert abs(half_norm - sobolev_norm(f, 1.0)) <= 1e-13 * sobolev_norm(f, 1.0)


class TestLazyBuildCounts:
    def test_lyapunov_builds_tangent_lattices_at_renormalisation_only(self, monkeypatch):
        grid = GridSpec(2, 16)
        theta0 = random_band_field(grid, 1, 4, 1.0, 6)
        S = random_band_field(grid, 1, 2, 0.5, 7)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=1.0, dt=0.02)
        n, steps_per_renorm, intervals = 4, 5, 4
        calls = count_lattice_builds(monkeypatch)
        lyapunov_run(
            cfg, theta0, S, n=n, renorm_interval=steps_per_renorm * 0.02,
            total_time=intervals * steps_per_renorm * 0.02,
        )
        # one lattice per tangent per Gram-Schmidt pass; the base is never read
        assert len(calls) == n * intervals
        assert len(calls) < (1 + n) * steps_per_renorm * intervals

    @pytest.mark.parametrize("dt", [0.05, None], ids=["fixed", "auto"])
    def test_run_builds_lattices_for_observed_states_only(self, monkeypatch, dt):
        grid = GridSpec(2, 16)
        theta0 = random_band_field(grid, 1, 5, 1.0, 8)
        S = random_band_field(grid, 1, 3, 0.4, 9)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=1.45, dt=dt)
        seen = []

        def observer(state):
            seen.append(sobolev_norm(state.theta, 1.0))

        calls = count_lattice_builds(monkeypatch)
        final = run(cfg, theta0, S, observers=(observer,), observe_every=10)
        assert final.theta.coeffs is not None  # the caller reads the final state too
        assert final.step_count > 2 * CFL_RECOMPUTE_EVERY
        # theta0 holds its lattice; every later observation builds one,
        # the final state's included
        assert len(calls) == len(seen) - 1
        assert len(seen) - 1 == final.step_count // 10 + (final.step_count % 10 != 0)


class TestRunMatchesChainedSteps:
    @pytest.mark.parametrize("integrator", ["etdrk2", "ifrk4"])
    @pytest.mark.parametrize("dt", [0.02, None], ids=["fixed", "auto"])
    def test_run_equals_eager_step_loop(self, integrator, dt):
        # the loop reads .coeffs after every step and hands step() a field
        # built from that lattice, the way every step ran before fields kept
        # their half spectrum
        grid = GridSpec(2, 16)
        theta0 = random_band_field(grid, 1, 5, 1.5, 10)
        S = random_band_field(grid, 1, 3, 0.4, 11)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=0.7, dt=dt,
                           integrator=integrator)
        table = build_symbol_table(SQG, grid)
        final = run(cfg, theta0, S, table=table)

        def auto_dt(theta):
            return min(DT_MAX, cfl_dt(apply_drift(table, theta), grid, cfg.cfl_safety))

        state = SimulationState(t=0.0, theta=theta0)
        h_dt = dt if dt is not None else auto_dt(theta0)
        eps = 1e-12 * max(cfg.t_end, 1.0)
        while state.t < cfg.t_end - eps:
            if dt is None and state.step_count and state.step_count % CFL_RECOMPUTE_EVERY == 0:
                h_dt = auto_dt(state.theta)
            state = step(state, cfg, S, table, h=min(h_dt, cfg.t_end - state.t))
            state = replace(state, theta=SpectralField(grid, state.theta.coeffs.copy()))
        assert state.step_count == final.step_count > CFL_RECOMPUTE_EVERY
        assert state.t == final.t
        assert np.array_equal(bits(final.theta.coeffs), bits(state.theta.coeffs))
