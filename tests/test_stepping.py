"""Tests for time integration: propagators, CFL, exactness, stability guards."""

import warnings

import numpy as np
import pytest

from activescalar import (
    BlowUpError,
    ConfigError,
    GridSpec,
    MultiplierSpec,
    SimulationState,
    SolverConfig,
    SpectralField,
    StabilityError,
    apply_drift,
    build_symbol_table,
    cfl_dt,
    linear_propagator,
    random_band_field,
    run,
    single_mode_field,
    sobolev_norm,
    step,
)
from activescalar.errors import ContractViolationError, ObserverError
from activescalar.stepping import DT_MAX, CFL_FLOOR

SQG = MultiplierSpec(kind="sqg")
ZERO2 = MultiplierSpec(
    kind="custom", dimension=2, symbol_fn=lambda k: np.zeros(2, complex), label="zero"
)


def sqg_table(grid):
    return build_symbol_table(SQG, grid)


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SolverConfig(kappa=-1, gamma=1, drift=SQG, t_end=1)
        with pytest.raises(ConfigError):
            SolverConfig(kappa=1, gamma=2.5, drift=SQG, t_end=1)
        with pytest.raises(ConfigError):
            SolverConfig(kappa=1, gamma=1, drift=SQG, t_end=1, integrator="euler")
        with pytest.raises(ConfigError):
            SolverConfig(kappa=1, gamma=1, drift=SQG, t_end=1, cfl_safety=0.0)

    @pytest.mark.parametrize("rule", ["2/3", "two_thirds", "none", None])
    def test_accepts_every_dealias_rule(self, rule):
        assert SolverConfig(kappa=1, gamma=1, drift=SQG, t_end=1, dealias=rule).dealias == rule

    @pytest.mark.parametrize("rule", ["1/2", "None", ""])
    def test_rejects_unknown_dealias_rule(self, rule):
        with pytest.raises(ConfigError, match="dealias"):
            SolverConfig(kappa=1, gamma=1, drift=SQG, t_end=1, dealias=rule)


class TestLinearPropagator:
    def test_kappa_zero_all_ones(self):
        grid = GridSpec(2, 16)
        assert np.all(linear_propagator(grid, 0.0, 1.0, 0.5) == 1.0)

    def test_closed_form_value(self):
        grid = GridSpec(2, 16)
        factors = linear_propagator(grid, 0.1, 1.0, 1.0)
        assert abs(factors[grid.index_of((1, 0))] - np.exp(-0.1)) < 1e-15

    def test_exponent_arithmetic(self):
        grid = GridSpec(2, 16)
        factors = linear_propagator(grid, 0.3, 2.0, 0.7)
        f1 = factors[grid.index_of((1, 0))]
        f2 = factors[grid.index_of((2, 0))]
        assert abs(f2 - f1**4) < 1e-14

    def test_factors_in_unit_interval(self):
        grid = GridSpec(2, 16)
        factors = linear_propagator(grid, 2.0, 1.5, 0.1)
        assert np.all(factors > 0) and np.all(factors <= 1.0)


class TestCflDt:
    def test_unit_velocity(self):
        grid = GridSpec(2, 64)
        u = apply_drift(sqg_table(grid), single_mode_field(grid, (1, 0), 1.0))
        # |u|_inf = 1 for the Riesz drift of cos(x1)
        got = cfl_dt(u, grid, cfl_safety=0.5)
        assert abs(got - 0.5 * 2 * np.pi / 64) < 1e-12

    def test_zero_velocity_floor(self):
        grid = GridSpec(2, 64)
        from activescalar import VectorField

        u = VectorField((SpectralField.zeros(grid), SpectralField.zeros(grid)))
        got = cfl_dt(u, grid, cfl_safety=0.5)
        assert abs(got - 0.5 * (2 * np.pi / 64) / CFL_FLOOR) < 1e-4 * got

    def test_doubling_velocity_halves_dt(self):
        grid = GridSpec(2, 32)
        theta = random_band_field(grid, 1, 4, 1.0, 0)
        table = sqg_table(grid)
        d1 = cfl_dt(apply_drift(table, theta), grid)
        d2 = cfl_dt(apply_drift(table, 2.0 * theta), grid)
        assert abs(d1 / d2 - 2.0) < 1e-12

    @pytest.mark.parametrize("grid", [GridSpec(2, 32), GridSpec(3, 12)], ids=["2d", "3d"])
    def test_stacked_transform_equals_per_component_max(self, grid):
        # one stacked inverse over the d components gives the same bits as
        # the max of their separate oversample-1 sup norms
        from activescalar import linf_norm

        spec = SQG if grid.dimension == 2 else MultiplierSpec(kind="mg", nu=0.5)
        theta = random_band_field(grid, 1, 5, 1.0, 4, zero_k3_plane=grid.dimension == 3)
        u = apply_drift(build_symbol_table(spec, grid), theta)
        umax = max(linf_norm(comp, oversample=1) for comp in u.components)
        assert cfl_dt(u, grid, 0.5) == 0.5 * grid.dx / umax


class TestStepExactness:
    @pytest.mark.parametrize("integrator", ["etdrk2", "ifrk4"])
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_pure_diffusion_exact(self, integrator, gamma):
        grid = GridSpec(2, 16)
        cfg = SolverConfig(
            kappa=0.1, gamma=gamma, drift=ZERO2, t_end=1.0, dt=1.0, integrator=integrator
        )
        table = build_symbol_table(ZERO2, grid)
        state = SimulationState(t=0.0, theta=single_mode_field(grid, (1, 0), 1.0))
        out = step(state, cfg, None, table)
        got = 2.0 * out.theta.coeffs[grid.index_of((1, 0))].real
        assert abs(got - np.exp(-0.1)) < 1e-12

    def test_linear_fixed_point(self):
        # forced single mode with SQG drift: self-advection of one mode
        # vanishes, so the trajectory solves the linear equation exactly and
        # settles at S_hat / (kappa |k|^gamma)
        grid = GridSpec(2, 16)
        S = single_mode_field(grid, (2, 1), 0.5)
        cfg = SolverConfig(kappa=0.5, gamma=1.0, drift=SQG, t_end=40.0, dt=0.05)
        final = run(cfg, SpectralField.zeros(grid), S)
        idx = grid.index_of((2, 1))
        expected = S.coeffs[idx] / (0.5 * np.sqrt(5.0))
        assert abs(final.theta.coeffs[idx] - expected) < 1e-10 * abs(expected)

    def test_energy_conservation_kappa_zero(self):
        grid = GridSpec(2, 32)
        theta0 = random_band_field(grid, 1, 5, 1.0, 3)
        cfg = SolverConfig(
            kappa=0.0, gamma=1.0, drift=SQG, t_end=1.0, dt=0.01, integrator="ifrk4"
        )
        final = run(cfg, theta0)
        assert final.step_count == 100
        e0, e1 = sobolev_norm(theta0, 0.0), sobolev_norm(final.theta, 0.0)
        assert abs(e1 - e0) / e0 < 1e-8

    def test_l2_contraction_unforced(self):
        grid = GridSpec(2, 32)
        theta0 = random_band_field(grid, 1, 5, 1.0, 4)
        cfg = SolverConfig(kappa=0.2, gamma=1.0, drift=SQG, t_end=1.0, dt=0.02)
        norms = []
        run(cfg, theta0, observers=(lambda s: norms.append(sobolev_norm(s.theta, 0.0)),))
        for a, b in zip(norms, norms[1:]):
            assert b <= a * (1 + 1e-10)

    def test_invariants_preserved_along_run(self):
        grid = GridSpec(2, 16)
        theta0 = random_band_field(grid, 1, 5, 1.0, 5)
        S = random_band_field(grid, 1, 3, 0.5, 6)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=0.5, dt=0.05)

        def check(state):
            c = state.theta.coeffs
            assert c[0, 0] == 0
            assert np.all(c[grid.nyquist_mask] == 0)
            from activescalar.grid import _reflect

            assert np.max(np.abs(c - np.conj(_reflect(c)))) < 1e-15

        run(cfg, theta0, S, observers=(check,))


class TestStepGuards:
    def test_missing_dt(self):
        grid = GridSpec(2, 16)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=1.0)
        state = SimulationState(t=0.0, theta=single_mode_field(grid, (1, 0)))
        with pytest.raises(ConfigError):
            step(state, cfg, None, sqg_table(grid))

    def test_cfl_violation(self):
        grid = GridSpec(2, 32)
        theta = random_band_field(grid, 1, 4, 50.0, 7)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=1.0, dt=0.5)
        state = SimulationState(t=0.0, theta=theta)
        with pytest.raises(StabilityError):
            step(state, cfg, None, sqg_table(grid))

    def test_cfl_violation_carries_t_h_bound(self):
        grid = GridSpec(2, 32)
        theta = random_band_field(grid, 1, 4, 50.0, 7)
        table = sqg_table(grid)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=1.0, dt=0.5)
        state = SimulationState(t=0.25, theta=theta)
        with pytest.raises(StabilityError) as info:
            step(state, cfg, None, table)
        err = info.value
        bound = cfl_dt(apply_drift(table, theta), grid, cfg.cfl_safety)
        assert (err.t, err.h, err.bound) == (0.25, 0.5, bound)
        assert str(err) == (
            f"dt={0.5:.3g} exceeds CFL bound {bound:.3g} by more than 10x at t={0.25:.6g}"
        )

    def test_blow_up_detection(self):
        # drift-free run forced past the double range: linear growth theta ~ t S
        # overflows, and the non-finite guard must fail loudly with t attached
        grid = GridSpec(2, 16)
        S = single_mode_field(grid, (1, 0), 1e307)
        cfg = SolverConfig(kappa=0.0, gamma=1.0, drift=ZERO2, t_end=100.0, dt=1.0)
        with pytest.raises(BlowUpError) as info:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run(cfg, SpectralField.zeros(grid), S)
        assert info.value.t > 0

    def test_advective_instability_caught_by_cfl_guard(self):
        # an unstable advective step inflates the velocity until the runtime
        # CFL guard trips; the run never returns garbage silently
        grid = GridSpec(2, 32)
        theta = random_band_field(grid, 2, 6, 20.0, 8)
        bound = cfl_dt(apply_drift(sqg_table(grid), theta), grid, 0.5)
        cfg = SolverConfig(kappa=0.0, gamma=1.0, drift=SQG, t_end=50.0, dt=8.0 * bound)
        with pytest.raises(StabilityError):
            run(cfg, theta)


class TestRun:
    def test_t_end_zero_returns_theta0(self):
        grid = GridSpec(2, 16)
        theta0 = random_band_field(grid, 1, 5, 1.0, 9)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=0.0)
        out = run(cfg, theta0)
        assert out.t == 0.0 and out.step_count == 0
        assert np.array_equal(out.theta.coeffs, theta0.coeffs)

    def test_final_time_hit_exactly(self):
        grid = GridSpec(2, 16)
        theta0 = random_band_field(grid, 1, 5, 0.5, 10)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=0.33, dt=0.05)
        out = run(cfg, theta0)
        assert abs(out.t - 0.33) < 1e-12

    def test_determinism_bitwise(self):
        grid = GridSpec(2, 32)
        theta0 = random_band_field(grid, 1, 5, 1.0, 11)
        S = random_band_field(grid, 1, 3, 0.4, 12)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=0.5)  # auto dt
        out1 = run(cfg, theta0, S)
        out2 = run(cfg, theta0, S)
        assert np.array_equal(out1.theta.coeffs, out2.theta.coeffs)
        assert out1.t == out2.t and out1.step_count == out2.step_count

    def test_auto_dt_capped(self):
        grid = GridSpec(2, 16)
        theta0 = 1e-6 * random_band_field(grid, 1, 3, 1.0, 13)
        cfg = SolverConfig(kappa=0.01, gamma=1.0, drift=SQG, t_end=1.0)
        out = run(cfg, theta0)
        # tiny velocity: auto dt is capped at DT_MAX
        assert out.step_count == int(round(1.0 / DT_MAX))

    def test_gronwall_l2_bound(self):
        # crude linear-growth bound ||theta(T)|| <= ||theta0|| + T ||S||
        grid = GridSpec(3, 12)
        mg = MultiplierSpec(kind="mg", nu=0.5)
        theta0 = random_band_field(grid, 1, 3, 1.0, 14, zero_k3_plane=True)
        S = random_band_field(grid, 1, 2, 0.5, 15, zero_k3_plane=True)
        cfg = SolverConfig(kappa=0.3, gamma=2.0, drift=mg, t_end=1.0, dt=0.05)
        final = run(cfg, theta0, S)
        lhs = sobolev_norm(final.theta, 0.0)
        rhs = sobolev_norm(theta0, 0.0) + 1.0 * sobolev_norm(S, 0.0)
        assert lhs <= rhs * (1 + 1e-6)

    def test_observer_failure_context(self):
        grid = GridSpec(2, 16)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=0.2, dt=0.05)

        def bad(state):
            if state.step_count == 2:
                raise RuntimeError("boom")

        with pytest.raises(ObserverError) as info:
            run(cfg, single_mode_field(grid, (1, 0)), observers=(bad,))
        assert info.value.step == 2

    def test_mg_vertical_mean_precondition(self):
        grid = GridSpec(3, 12)
        mg = MultiplierSpec(kind="mg", nu=0.5)
        bad_theta = single_mode_field(grid, (1, 1, 0), 1.0)  # energy on k3=0
        cfg = SolverConfig(kappa=0.3, gamma=2.0, drift=mg, t_end=0.1, dt=0.05)
        with pytest.raises(ConfigError):
            run(cfg, bad_theta)

    def test_kappa_zero_singular_drift_warns(self):
        from activescalar import analytic_decay_field

        grid = GridSpec(3, 12)
        mg0 = MultiplierSpec(kind="mg", nu=0.0)
        theta0 = analytic_decay_field(grid, 1.0, 0.1, 16, zero_k3_plane=True)
        cfg = SolverConfig(kappa=0.0, gamma=2.0, drift=mg0, t_end=0.1, dt=0.01)
        with pytest.warns(UserWarning, match="singular"):
            run(cfg, theta0)


class TestExactLinearReference:
    def test_multimode_diffusion_matches_closed_form(self):
        from activescalar.stepping import exact_linear_state

        grid = GridSpec(2, 16)
        theta0 = random_band_field(grid, 1, 6, 1.0, 17)
        cfg = SolverConfig(
            kappa=0.4, gamma=1.5, drift=ZERO2, t_end=2.0, dt=0.25
        )
        via_run = run(cfg, theta0)
        oracle = exact_linear_state(
            SimulationState(t=0.0, theta=theta0), cfg, t=2.0
        )
        err = np.max(np.abs(via_run.theta.coeffs - oracle.theta.coeffs))
        assert err < 1e-14


class TestSpectralCore:
    @pytest.mark.parametrize(
        "kmax, fields", [(4, 2 * (2 * 3 + 1)), (5, 2 * (2 * 3 + 1) + 3)], ids=["band", "out"]
    )
    def test_etdrk2_3d_step_transform_count(self, fft_counter, kmax, fields):
        # band-limited theta (|k_j| <= N/3 = 4): the CFL guard reuses the
        # stage-1 drift, so the step transforms 2(2d+1) real fields; with
        # energy outside the band it transforms the full drift too
        grid = GridSpec(3, 12)
        mg = MultiplierSpec(kind="mg", nu=0.5)
        table = build_symbol_table(mg, grid)
        theta = random_band_field(grid, 1, kmax, 1.0, 21, zero_k3_plane=True)
        S = random_band_field(grid, 1, 2, 0.5, 22, zero_k3_plane=True)
        cfg = SolverConfig(kappa=0.1, gamma=2.0, drift=mg, t_end=1.0, dt=0.01)
        counts = fft_counter(grid)
        step(SimulationState(t=0.0, theta=theta), cfg, S, table)
        assert (counts["real"], counts["complex"]) == (fields, 0)

    def test_divergent_lenient_table_rejected_before_first_step(self, tmp_path):
        from activescalar import load_custom_symbol_file

        path = tmp_path / "bad.txt"
        path.write_text("1 0 1.0 0.0 0.0 0.0\n-1 0 1.0 0.0 0.0 0.0\n")
        grid = GridSpec(2, 16)
        with pytest.warns(UserWarning):
            table = load_custom_symbol_file(path, 2, grid, strict=False)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=table.spec, t_end=0.1, dt=0.05)
        seen = []
        with pytest.raises(ContractViolationError):
            run(cfg, single_mode_field(grid, (0, 1)), table=table, observers=(seen.append,))
        assert seen == []

    def test_linear_factor_cache_bounded_under_auto_dt(self):
        from activescalar.stepping import LINEAR_FACTOR_CACHE_SIZE, _linear_factors

        grid = GridSpec(2, 16)
        theta0 = random_band_field(grid, 1, 5, 4.0, 23)
        cfg = SolverConfig(kappa=0.2, gamma=1.0, drift=SQG, t_end=4.0)
        out = run(cfg, theta0)
        assert out.step_count > 10 * LINEAR_FACTOR_CACHE_SIZE  # many dt recomputes
        assert _linear_factors.cache_info().currsize <= LINEAR_FACTOR_CACHE_SIZE
        factors = _linear_factors(grid, 0.05, 1.0, 0.01, "etdrk2")
        assert not any(f.flags.writeable for f in factors)
