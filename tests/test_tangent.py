"""Tests for tangent propagation, re-orthonormalization and Lyapunov runs."""

import numpy as np
import pytest

from activescalar import (
    GridSpec,
    MultiplierSpec,
    SimulationState,
    SolverConfig,
    SpectralField,
    TangentBundle,
    build_symbol_table,
    fd_consistency,
    linearized_rhs,
    lyapunov_run,
    random_band_field,
    reorthonormalize,
    run,
    single_mode_field,
    sobolev_norm,
    tangent_step,
)
from activescalar.errors import DegenerateTangentError
from activescalar.tangent import random_tangent_set, tangent_inner, tangent_norm

SQG = MultiplierSpec(kind="sqg")


def sqg_cfg(**kw):
    base = dict(kappa=0.2, gamma=1.0, drift=SQG, t_end=1.0, dt=0.02)
    base.update(kw)
    return SolverConfig(**base)


class TestLinearizedRhs:
    def test_dissipation_only_at_zero_base(self):
        grid = GridSpec(2, 16)
        cfg = sqg_cfg(kappa=0.1, gamma=2.0)
        table = build_symbol_table(SQG, grid)
        psi = single_mode_field(grid, (1, 0), 1.0)
        out = linearized_rhs(SpectralField.zeros(grid), psi, cfg, table)
        assert np.max(np.abs(out.coeffs - (-0.1) * psi.coeffs)) < 1e-15

    def test_zero_perturbation(self):
        grid = GridSpec(2, 16)
        cfg = sqg_cfg()
        table = build_symbol_table(SQG, grid)
        theta = random_band_field(grid, 1, 5, 1.0, 0)
        out = linearized_rhs(theta, SpectralField.zeros(grid), cfg, table)
        assert np.all(out.coeffs == 0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_exact_linearity(self, seed):
        grid = GridSpec(2, 16)
        cfg = sqg_cfg()
        table = build_symbol_table(SQG, grid)
        theta = random_band_field(grid, 1, 5, 1.0, 10 + seed)
        psi1 = random_band_field(grid, 1, 5, 1.0, 20 + seed)
        psi2 = random_band_field(grid, 1, 5, 1.0, 30 + seed)
        lhs = linearized_rhs(theta, 2.0 * psi1 + 3.0 * psi2, cfg, table)
        rhs = (
            2.0 * linearized_rhs(theta, psi1, cfg, table)
            + 3.0 * linearized_rhs(theta, psi2, cfg, table)
        )
        scale = np.max(np.abs(rhs.coeffs))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-13 * scale


class TestTangentStep:
    def test_zero_base_tangent_decays_exactly(self):
        grid = GridSpec(2, 16)
        cfg = sqg_cfg(kappa=0.3, gamma=1.0, dt=0.1)
        table = build_symbol_table(SQG, grid)
        psi = single_mode_field(grid, (1, 0), 1.0)
        bundle = TangentBundle(
            base=SimulationState(t=0.0, theta=SpectralField.zeros(grid)),
            tangents=(psi,),
        )
        out = tangent_step(bundle, cfg, None, table)
        got = out.tangents[0].coeffs[grid.index_of((1, 0))]
        assert abs(got - 0.5 * np.exp(-0.03)) < 1e-14

    @pytest.mark.parametrize(
        "integrator, n",
        [
            pytest.param("etdrk2", 0, id="etdrk2"),
            pytest.param("ifrk4", 0, id="ifrk4"),
            pytest.param("etdrk2", 3, id="etdrk2-n3"),
            pytest.param("ifrk4", 3, id="ifrk4-n3"),
        ],
    )
    def test_no_tangents_reduces_to_plain_step(self, integrator, n):
        # the base row of the stepped stack is step() itself, with or
        # without tangent rows beside it
        from activescalar import step

        grid = GridSpec(2, 16)
        cfg = sqg_cfg(integrator=integrator)
        table = build_symbol_table(SQG, grid)
        theta = random_band_field(grid, 1, 5, 1.0, 3)
        S = random_band_field(grid, 1, 3, 0.5, 4)
        bundle = TangentBundle(
            base=SimulationState(t=0.0, theta=theta),
            tangents=random_tangent_set(grid, n, 5) if n else (),
        )
        via_bundle = tangent_step(bundle, cfg, S, table)
        via_step = step(SimulationState(t=0.0, theta=theta), cfg, S, table)
        assert np.array_equal(via_bundle.base.theta.coeffs, via_step.theta.coeffs)

    @pytest.mark.parametrize("integrator", ["etdrk2", "ifrk4"])
    def test_tangents_independent_of_batch(self, integrator):
        grid = GridSpec(2, 16)
        cfg = sqg_cfg(integrator=integrator)
        table = build_symbol_table(SQG, grid)
        theta = random_band_field(grid, 1, 5, 1.0, 3)
        S = random_band_field(grid, 1, 3, 0.5, 4)
        base = SimulationState(t=0.0, theta=theta)
        tangents = random_tangent_set(grid, 3, 6)
        together = tangent_step(TangentBundle(base=base, tangents=tangents), cfg, S, table)
        for psi, got in zip(tangents, together.tangents):
            alone = tangent_step(TangentBundle(base=base, tangents=(psi,)), cfg, S, table)
            assert np.array_equal(got.coeffs, alone.tangents[0].coeffs)

    def test_etdrk2_transform_count(self, fft_counter):
        # per stage, theta and every tangent go through one inverse (field +
        # d drift components each; a leading-axes ifftn and a last-axis
        # irfft) and one forward call (d fluxes each): 2 (n+1)(2d+1) real
        # fields in 6 calls per step
        grid = GridSpec(2, 16)
        n, d = 3, grid.dimension
        cfg = sqg_cfg()
        table = build_symbol_table(SQG, grid)
        bundle = TangentBundle(
            base=SimulationState(t=0.0, theta=random_band_field(grid, 1, 5, 1.0, 3)),
            tangents=random_tangent_set(grid, n, 5),
        )
        S = random_band_field(grid, 1, 3, 0.5, 4)
        counts = fft_counter(grid)
        tangent_step(bundle, cfg, S, table)
        assert counts == {"calls": 6, "real": 2 * (n + 1) * (2 * d + 1), "complex": 0}

    def test_steady_state_rhs_direction_stays_zero(self):
        # at the single-mode fixed point the full right-hand side vanishes,
        # so the tangent seeded with it stays at the numerical floor
        grid = GridSpec(2, 16)
        S = single_mode_field(grid, (2, 1), 0.5)
        cfg = sqg_cfg(kappa=0.5, gamma=1.0, t_end=60.0, dt=0.05)
        table = build_symbol_table(SQG, grid)
        steady = run(cfg, SpectralField.zeros(grid), S).theta
        rhs0 = linearized_rhs(steady, steady, cfg, table)  # placeholder shape
        # time-derivative direction: -kappa Lambda theta - u.grad theta + S
        from activescalar import advect, apply_drift, fractional_laplacian

        drift = apply_drift(table, steady)
        ddt = (
            S
            - advect(drift, steady)
            - cfg.kappa * fractional_laplacian(steady, cfg.gamma)
        )
        assert sobolev_norm(ddt, 0.0) < 1e-10 * sobolev_norm(steady, 0.0)
        bundle = TangentBundle(
            base=SimulationState(t=0.0, theta=steady), tangents=(ddt,)
        )
        for _ in range(20):
            bundle = tangent_step(bundle, cfg, S, table, h=0.05)
        assert tangent_norm(bundle.tangents[0]) < 1e-10 * sobolev_norm(steady, 0.0)


class TestReorthonormalize:
    def test_orthonormal_set_unchanged(self):
        grid = GridSpec(2, 16)
        tangents = random_tangent_set(grid, 3, seed=0)
        bundle = TangentBundle(
            base=SimulationState(t=0.0, theta=SpectralField.zeros(grid)),
            tangents=tangents,
        )
        _, logs = reorthonormalize(bundle)
        assert np.max(np.abs(logs)) < 1e-12

    def test_scaled_tangent_log_increment(self):
        grid = GridSpec(2, 16)
        (psi,) = random_tangent_set(grid, 1, seed=1)
        bundle = TangentBundle(
            base=SimulationState(t=0.0, theta=SpectralField.zeros(grid)),
            tangents=(np.e * psi,),
        )
        _, logs = reorthonormalize(bundle)
        assert abs(logs[0] - 1.0) < 1e-12

    def test_gram_determinant_oracle(self):
        grid = GridSpec(2, 16)
        t1 = random_band_field(grid, 1, 5, 1.0, 11)
        t2 = random_band_field(grid, 1, 5, 1.0, 12)
        bundle = TangentBundle(
            base=SimulationState(t=0.0, theta=SpectralField.zeros(grid)),
            tangents=(t1, t2),
        )
        _, logs = reorthonormalize(bundle)
        gram = np.array(
            [[tangent_inner(x, y, "h1") for y in (t1, t2)] for x in (t1, t2)]
        )
        vol = np.sqrt(np.linalg.det(gram))
        assert abs(np.exp(np.sum(logs)) - vol) < 1e-10 * vol

    def test_orthonormality_after(self):
        grid = GridSpec(2, 16)
        raw = tuple(random_band_field(grid, 1, 5, 1.0, 40 + i) for i in range(4))
        bundle = TangentBundle(
            base=SimulationState(t=0.0, theta=SpectralField.zeros(grid)),
            tangents=raw,
        )
        out, _ = reorthonormalize(bundle)
        for i, a in enumerate(out.tangents):
            assert abs(tangent_norm(a) - 1.0) < 1e-12
            for b in out.tangents[i + 1 :]:
                assert abs(tangent_inner(a, b)) < 1e-10

    def test_rank_deficiency_detected(self):
        # the 1e-300 normalizer threshold flags exactly degenerate directions
        grid = GridSpec(2, 16)
        t1 = random_band_field(grid, 1, 5, 1.0, 13)
        bundle = TangentBundle(
            base=SimulationState(t=0.0, theta=SpectralField.zeros(grid)),
            tangents=(t1, SpectralField.zeros(grid)),
        )
        with pytest.raises(DegenerateTangentError):
            reorthonormalize(bundle)

    def test_volume_sum_rotation_invariant(self):
        grid = GridSpec(2, 16)
        tangents = random_tangent_set(grid, 3, seed=5)
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mixed = tuple(
            SpectralField._wrap(
                grid, sum(q[i, j] * tangents[j].coeffs for j in range(3))
            )
            for i in range(3)
        )
        base = SimulationState(t=0.0, theta=SpectralField.zeros(grid))
        _, logs_a = reorthonormalize(TangentBundle(base=base, tangents=tangents))
        _, logs_b = reorthonormalize(TangentBundle(base=base, tangents=mixed))
        assert abs(np.sum(logs_a) - np.sum(logs_b)) < 1e-8


class TestLyapunovRun:
    def test_trivial_attractor_matches_dissipation_spectrum(self):
        grid = GridSpec(2, 16)
        cfg = SolverConfig(kappa=1.0, gamma=1.0, drift=SQG, t_end=1.0, dt=0.05)
        res = lyapunov_run(
            cfg, SpectralField.zeros(grid), None, n=8,
            renorm_interval=0.5, total_time=40.0, seed=1,
        )
        expected = np.array([-1.0] * 4 + [-np.sqrt(2.0)] * 4)
        rel = np.max(np.abs(res.exponents - expected) / np.abs(expected))
        assert rel < 0.05
        assert res.n_star == 1
        assert res.ky_dimension == 0.0

    def test_exponents_sorted_and_ky_bounded(self):
        grid = GridSpec(2, 16)
        S = random_band_field(grid, 1, 2, 0.5, 7)
        theta0 = random_band_field(grid, 1, 3, 0.5, 8)
        cfg = SolverConfig(kappa=0.5, gamma=1.0, drift=SQG, t_end=1.0, dt=0.05)
        res = lyapunov_run(cfg, theta0, S, n=4, renorm_interval=0.5, total_time=15.0)
        assert np.all(np.diff(res.exponents) <= 1e-12)
        assert 0.0 <= res.ky_dimension <= 4.0

    def test_cumulative_sums_decrease_for_dissipative_run(self):
        grid = GridSpec(2, 16)
        cfg = SolverConfig(kappa=1.0, gamma=1.0, drift=SQG, t_end=1.0, dt=0.05)
        res = lyapunov_run(
            cfg, SpectralField.zeros(grid), None, n=6,
            renorm_interval=0.5, total_time=20.0, seed=2,
        )
        sums = res.cumulative_sums
        assert np.all(np.diff(sums) < 0)

    def test_n_star_sign_pattern(self):
        grid = GridSpec(2, 16)
        S = random_band_field(grid, 1, 2, 0.5, 9)
        theta0 = random_band_field(grid, 1, 3, 0.5, 10)
        cfg = SolverConfig(kappa=1.0, gamma=1.0, drift=SQG, t_end=1.0, dt=0.05)
        res = lyapunov_run(cfg, theta0, S, n=4, renorm_interval=0.5, total_time=15.0)
        assert res.n_star is not None
        sums = res.cumulative_sums
        assert sums[res.n_star - 1] < 0
        if res.n_star >= 2:
            assert sums[res.n_star - 2] >= 0

    def test_renorm_interval_independence(self):
        grid = GridSpec(2, 16)
        cfg = SolverConfig(kappa=1.0, gamma=1.0, drift=SQG, t_end=1.0, dt=0.05)
        a = lyapunov_run(
            cfg, SpectralField.zeros(grid), None, n=4,
            renorm_interval=0.5, total_time=30.0, seed=3,
        )
        b = lyapunov_run(
            cfg, SpectralField.zeros(grid), None, n=4,
            renorm_interval=0.25, total_time=30.0, seed=3,
        )
        assert np.max(np.abs(a.exponents - b.exponents) / np.abs(b.exponents)) < 0.01


class TestNStarScaling:
    def test_qualitative_kappa_trend(self):
        # trivial attractor: every exponent is negative, so n_star = 1 at all
        # kappa and the fitted scaling slope sits above the -d/gamma envelope
        from activescalar.tangent import n_star_scaling_exponent

        grid = GridSpec(2, 16)
        n_stars = []
        kappas = (0.5, 1.0, 2.0)
        for kappa in kappas:
            cfg = SolverConfig(kappa=kappa, gamma=1.0, drift=SQG, t_end=1.0, dt=0.05)
            res = lyapunov_run(
                cfg, SpectralField.zeros(grid), None, n=3,
                renorm_interval=0.5, total_time=10.0, seed=4,
            )
            n_stars.append(res.n_star)
        slope = n_star_scaling_exponent(kappas, n_stars)
        d, gamma = 2, 1.0
        assert slope >= -d / gamma - 0.5

    def test_input_validation(self):
        from activescalar.tangent import n_star_scaling_exponent

        with pytest.raises(ValueError):
            n_star_scaling_exponent([1.0], [1])


class TestFdConsistency:
    def test_linear_regime_exact(self):
        grid = GridSpec(2, 16)
        cfg = sqg_cfg()
        psi0 = single_mode_field(grid, (1, 0), 1.0)
        err = fd_consistency(SpectralField.zeros(grid), psi0, 1e-4, 0.5, cfg, None)
        assert err < 1e-12

    def test_zero_horizon(self):
        grid = GridSpec(2, 16)
        cfg = sqg_cfg()
        psi0 = single_mode_field(grid, (1, 0), 1.0)
        theta0 = random_band_field(grid, 1, 4, 1.0, 14)
        assert fd_consistency(theta0, psi0, 1e-4, 0.0, cfg, None) == 0.0

    def test_eps_halving_halves_error(self):
        grid = GridSpec(2, 16)
        cfg = sqg_cfg()
        theta0 = random_band_field(grid, 1, 4, 1.0, 15)
        S = random_band_field(grid, 1, 3, 0.5, 16)
        psi0 = single_mode_field(grid, (1, 0), 1.0)
        e1 = fd_consistency(theta0, psi0, 1e-4, 0.5, cfg, S)
        e2 = fd_consistency(theta0, psi0, 5e-5, 0.5, cfg, S)
        assert 1.4 < e1 / e2 < 2.6

    def test_eps_domain(self):
        grid = GridSpec(2, 16)
        cfg = sqg_cfg()
        psi0 = single_mode_field(grid, (1, 0), 1.0)
        with pytest.raises(ValueError):
            fd_consistency(SpectralField.zeros(grid), psi0, 0.5, 0.5, cfg, None)


class TestDynamicVolumeInvariance:
    def test_propagated_volume_rotation_invariant(self):
        # the n-volume carried by the tangent flow depends only on the span:
        # rotating the initial set leaves the accumulated log volume equal
        grid = GridSpec(2, 16)
        cfg = SolverConfig(
            kappa=0.3, gamma=1.0, drift=SQG, t_end=1.0, dt=0.05
        )
        table = build_symbol_table(SQG, grid)
        theta0 = random_band_field(grid, 1, 3, 0.8, 70)
        S = random_band_field(grid, 1, 2, 0.4, 71)
        tangents = random_tangent_set(grid, 3, seed=72)
        rng = np.random.default_rng(73)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mixed = tuple(
            SpectralField._wrap(
                grid, sum(q[i, j] * tangents[j].coeffs for j in range(3))
            )
            for i in range(3)
        )
        vols = []
        for initial in (tangents, mixed):
            bundle = TangentBundle(
                base=SimulationState(t=0.0, theta=theta0), tangents=initial
            )
            for _ in range(10):
                bundle = tangent_step(bundle, cfg, S, table, h=0.05)
            _, logs = reorthonormalize(bundle)
            vols.append(np.sum(logs))
        assert abs(vols[0] - vols[1]) < 1e-8 * max(abs(vols[0]), 1.0)
