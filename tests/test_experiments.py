"""Tests for the sweep, radius-tracking and attractor-sampling studies."""

import warnings

import numpy as np
import pytest
from scipy import stats

from activescalar import (
    AttractorCloud,
    GridSpec,
    MultiplierSpec,
    SolverConfig,
    SpectralField,
    SweepAbortedError,
    SweepPlan,
    analytic_decay_field,
    attractor_sample,
    gevrey_radius_track,
    kappa_sweep,
    nu_sweep_attractor,
    random_band_field,
    semidistance,
    single_mode_field,
    sobolev_norm,
)
from activescalar.experiments import _spearman, difference_norm, field_digest

SQG = MultiplierSpec(kind="sqg")
MG = MultiplierSpec(kind="mg", nu=0.1)
ZERO2 = MultiplierSpec(
    kind="custom", dimension=2, symbol_fn=lambda k: np.zeros(2, complex), label="zero"
)


class TestSweepPlan:
    def test_descending_required(self):
        grid = GridSpec(2, 16)
        base = SolverConfig(kappa=1.0, gamma=1.0, drift=SQG, t_end=1.0, dt=0.02)
        theta0 = random_band_field(grid, 1, 4, 1.0, 0)
        with pytest.raises(ValueError):
            SweepPlan(
                base=base, parameter="kappa", values=(1e-3, 1e-2),
                theta0=theta0, forcing=SpectralField.zeros(grid),
            )

    def test_terminal_zero_allowed(self):
        grid = GridSpec(2, 16)
        base = SolverConfig(kappa=1.0, gamma=1.0, drift=SQG, t_end=1.0, dt=0.02)
        theta0 = random_band_field(grid, 1, 4, 1.0, 1)
        plan = SweepPlan(
            base=base, parameter="kappa", values=(1e-1, 1e-2, 0.0),
            theta0=theta0, forcing=SpectralField.zeros(grid),
        )
        assert plan.values[-1] == 0.0

    def test_fixed_dt_required(self):
        grid = GridSpec(2, 16)
        base = SolverConfig(kappa=1.0, gamma=1.0, drift=SQG, t_end=1.0)
        with pytest.raises(ValueError):
            SweepPlan(
                base=base, parameter="kappa", values=(1e-1,),
                theta0=random_band_field(grid, 1, 4, 1.0, 2),
                forcing=SpectralField.zeros(grid),
            )


@pytest.fixture(scope="module")
def sweep_result():
    grid = GridSpec(2, 32)
    theta0 = analytic_decay_field(grid, 0.8, 1.0, seed=4)
    S = random_band_field(grid, 1, 2, 0.3, seed=5)
    base = SolverConfig(kappa=1.0, gamma=1.0, drift=SQG, t_end=1.0, dt=0.02)
    plan = SweepPlan(
        base=base, parameter="kappa", values=(1e-1, 1e-2, 1e-3, 1e-4),
        theta0=theta0, forcing=S, norms=(("l2",), ("hs", 1.0)),
    )
    return plan, kappa_sweep(plan)


@pytest.fixture(scope="module")
def mg_setup():
    grid = GridSpec(3, 12)
    theta0 = random_band_field(grid, 1, 3, 1.0, seed=60, zero_k3_plane=True)
    S = random_band_field(grid, 1, 2, 0.5, seed=61, zero_k3_plane=True)
    base = SolverConfig(kappa=0.5, gamma=2.0, drift=MG, t_end=1.0, dt=0.05)
    return grid, theta0, S, base


class TestKappaSweep:

    def test_errors_decrease_monotonically(self, sweep_result):
        _, res = sweep_result
        errs = [res.errors[(k, 1.0)]["l2"] for k in res.kappas]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert res.monotone["l2"]

    def test_fitted_order_at_least_half(self, sweep_result):
        _, res = sweep_result
        assert res.fitted_order["l2"] >= 0.5

    def test_largest_kappa_has_largest_error(self, sweep_result):
        _, res = sweep_result
        errs = [res.errors[(k, 1.0)]["l2"] for k in res.kappas]
        assert errs[0] > errs[-1]

    def test_interpolation_inequality(self, sweep_result):
        # ||phi||_{H^s} <= ||phi||_{L2}^{sigma} ||phi||_{H^{s+1}}^{1-sigma}
        # with sigma = 1 - s/(s+1), checked on the sweep's difference fields
        plan, res = sweep_result
        s = 1.0
        sigma = 1.0 - s / (s + 1.0)
        grid = plan.theta0.grid
        rng = np.random.default_rng(0)
        for _ in range(5):
            c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            from activescalar.grid import _cleaned

            phi = SpectralField._wrap(grid, _cleaned(grid, c) * grid.dealias_mask)
            lhs = sobolev_norm(phi, s)
            rhs = sobolev_norm(phi, 0.0) ** sigma * sobolev_norm(phi, s + 1.0) ** (1 - sigma)
            assert lhs <= rhs * (1 + 1e-12)

    def test_identical_runs_give_zero_error(self):
        grid = GridSpec(2, 16)
        f = random_band_field(grid, 1, 4, 1.0, 6)
        assert difference_norm(f, f, ("l2",)) == 0.0
        assert difference_norm(f, f, ("hs", 1.0)) == 0.0

    def test_input_digests_recorded(self, sweep_result):
        plan, res = sweep_result
        assert res.input_digests["theta0"] == field_digest(plan.theta0)
        assert res.input_digests["forcing"] == field_digest(plan.forcing)

    def test_thread_count_does_not_change_results(self):
        grid = GridSpec(2, 16)
        theta0 = analytic_decay_field(grid, 0.8, 1.0, seed=7)
        S = random_band_field(grid, 1, 2, 0.3, seed=8)
        base = SolverConfig(kappa=1.0, gamma=1.0, drift=SQG, t_end=0.5, dt=0.05)
        plan = SweepPlan(
            base=base, parameter="kappa", values=(1e-1, 1e-2),
            theta0=theta0, forcing=S,
        )
        serial = kappa_sweep(plan, max_workers=1)
        threaded = kappa_sweep(plan, max_workers=2)
        for key, by_norm in serial.errors.items():
            for label, value in by_norm.items():
                assert threaded.errors[key][label] == value

    def test_blow_up_aborts_with_partial_results(self):
        grid = GridSpec(2, 16)
        S = single_mode_field(grid, (1, 0), 1e307)
        base = SolverConfig(kappa=1.0, gamma=1.0, drift=ZERO2, t_end=500.0, dt=1.0)
        plan = SweepPlan(
            base=base, parameter="kappa", values=(1e-1,),
            theta0=SpectralField.zeros(grid), forcing=S,
        )
        with pytest.raises(SweepAbortedError) as info:
            with np.errstate(invalid="ignore", over="ignore"):
                kappa_sweep(plan)
        assert hasattr(info.value, "partial")


class TestGevreyRadiusTrack:
    def test_diffusion_widens_radius(self):
        grid = GridSpec(2, 32)
        theta0 = analytic_decay_field(grid, 0.5, 1.0, seed=9)
        cfg = SolverConfig(kappa=0.5, gamma=2.0, drift=ZERO2, t_end=0.5, dt=0.05)
        rows = gevrey_radius_track(cfg, theta0, SpectralField.zeros(grid))
        taus = [r[1] for r in rows]
        for a, b in zip(taus, taus[1:]):
            assert b >= a * (1 - 0.05)
        assert taus[-1] > taus[0]

    def test_singular_drift_shrinks_radius(self):
        grid = GridSpec(2, 32)
        theta0 = analytic_decay_field(grid, 0.8, 1.0, seed=10)
        cfg = SolverConfig(kappa=0.0, gamma=1.0, drift=SQG, t_end=2.0, dt=0.02)
        rows = gevrey_radius_track(
            cfg, theta0, SpectralField.zeros(grid), observe_every=10
        )
        times = [r[0] for r in rows]
        taus = [r[1] for r in rows]
        assert stats.spearmanr(times, taus).statistic < 0

    def test_initial_estimate_acceptance(self):
        grid = GridSpec(2, 32)
        theta0 = analytic_decay_field(grid, 0.8, 1.0, seed=11)
        cfg = SolverConfig(kappa=0.1, gamma=1.0, drift=SQG, t_end=0.1, dt=0.05)
        rows = gevrey_radius_track(cfg, theta0, SpectralField.zeros(grid))
        assert 0.72 <= rows[0][1] <= 0.88

    def test_halts_at_resolvable_scale(self):
        # start with a radius just above the floor; the singular run must
        # stop early rather than report sub-grid radii
        grid = GridSpec(2, 32)
        theta0 = analytic_decay_field(grid, 0.45, 1.0, seed=12)
        floor = 2.0 * (2 * np.pi / 32)
        cfg = SolverConfig(kappa=0.0, gamma=1.0, drift=SQG, t_end=6.0, dt=0.02)
        rows = gevrey_radius_track(cfg, theta0, SpectralField.zeros(grid), observe_every=5)
        assert rows[-1][0] < 6.0  # halted before the horizon
        assert rows[-1][1] < floor


class TestAttractorClouds:
    def test_unforced_cloud_collapses_to_zero(self):
        grid = GridSpec(2, 16)
        cfg = SolverConfig(kappa=1.0, gamma=1.0, drift=SQG, t_end=1.0, dt=0.05)
        theta0 = random_band_field(grid, 1, 3, 1.0, 13)
        cloud = attractor_sample(
            cfg, [theta0], SpectralField.zeros(grid), transient=20.0, cadence=0.5, count=5
        )
        for snap in cloud.snapshots:
            assert sobolev_norm(snap, 0.0) < 1e-6

    def test_cadence_validation(self):
        grid = GridSpec(2, 16)
        cfg = SolverConfig(kappa=1.0, gamma=1.0, drift=SQG, t_end=1.0, dt=0.05)
        with pytest.raises(ValueError):
            attractor_sample(
                cfg, [single_mode_field(grid, (1, 0))], SpectralField.zeros(grid),
                transient=1.0, cadence=0.0, count=2,
            )

    def test_two_ensembles_agree(self):
        grid = GridSpec(2, 16)
        S = random_band_field(grid, 1, 2, 0.5, 14)
        cfg = SolverConfig(kappa=0.5, gamma=1.0, drift=SQG, t_end=1.0, dt=0.05)
        a = attractor_sample(
            cfg, [random_band_field(grid, 1, 3, 1.0, 15)], S,
            transient=30.0, cadence=0.5, count=8,
        )
        b = attractor_sample(
            cfg, [random_band_field(grid, 1, 3, 2.0, 16)], S,
            transient=30.0, cadence=0.5, count=8,
        )
        mean_a = np.mean([sobolev_norm(f, 0.0) for f in a.snapshots])
        mean_b = np.mean([sobolev_norm(f, 0.0) for f in b.snapshots])
        assert abs(mean_a - mean_b) / mean_a < 0.10

    def test_absorbing_ball_flags(self):
        grid = GridSpec(2, 16)
        S = random_band_field(grid, 1, 2, 0.5, 17)
        cfg = SolverConfig(kappa=0.5, gamma=1.0, drift=SQG, t_end=1.0, dt=0.05)
        cloud = attractor_sample(
            cfg, [random_band_field(grid, 1, 3, 1.0, 18)], S,
            transient=20.0, cadence=0.5, count=10,
        )
        assert cloud.flagged <= 0.05 * len(cloud.snapshots) + 1


class TestSemidistance:
    def _cloud(self, fields):
        return AttractorCloud(
            snapshots=tuple(fields), nu=0.0, kappa=1.0, transient=0.0, cadence=1.0
        )

    def test_identical_clouds(self):
        grid = GridSpec(2, 16)
        fields = [random_band_field(grid, 1, 4, 1.0, 20 + i) for i in range(3)]
        cloud = self._cloud(fields)
        assert semidistance(cloud, cloud) == 0.0

    def test_singleton_against_zero(self):
        grid = GridSpec(2, 16)
        f = random_band_field(grid, 1, 4, 1.3, 25)
        a = self._cloud([f])
        b = self._cloud([SpectralField.zeros(grid)])
        assert abs(semidistance(a, b) - sobolev_norm(f, 0.0)) < 1e-12

    def test_bounded_by_max_pairwise(self):
        grid = GridSpec(2, 16)
        fa = [random_band_field(grid, 1, 4, 1.0, 30 + i) for i in range(3)]
        fb = [random_band_field(grid, 1, 4, 1.0, 40 + i) for i in range(3)]
        a, b = self._cloud(fa), self._cloud(fb)
        pairmax = max(
            sobolev_norm(x - y, 0.0) for x in fa for y in fb
        )
        assert semidistance(a, b) <= pairmax + 1e-15

    def test_h1_variant(self):
        grid = GridSpec(2, 16)
        f = random_band_field(grid, 1, 4, 1.0, 50)
        a = self._cloud([f])
        b = self._cloud([SpectralField.zeros(grid)])
        assert abs(semidistance(a, b, norm="h1") - sobolev_norm(f, 1.0)) < 1e-12


class TestNuSweep:
    def test_semidistance_shrinks_toward_reference(self, mg_setup):
        grid, theta0, S, base = mg_setup
        plan = SweepPlan(
            base=base, parameter="nu", values=(0.2, 0.1, 0.05),
            theta0=theta0, forcing=S,
        )
        ref = attractor_sample(
            plan.member_config(0.0), [theta0], S, transient=5.0, cadence=0.5, count=8
        )
        res = nu_sweep_attractor(plan, ref, transient=5.0, cadence=0.5, count=8)
        assert res.spearman > 0

    def test_interior_h1_semicontinuity(self, mg_setup):
        grid, theta0, S, base = mg_setup
        nu0 = 0.1
        plan = SweepPlan(
            base=base, parameter="nu", values=(0.4, 0.25, 0.15),
            theta0=theta0, forcing=S,
        )
        ref = attractor_sample(
            plan.member_config(nu0), [theta0], S, transient=5.0, cadence=0.5, count=6
        )
        res = nu_sweep_attractor(
            plan, ref, transient=5.0, cadence=0.5, count=6, norm="h1"
        )
        values = [v for _, v in res.rows]
        # distances to the nu0 cloud shrink as nu decreases toward nu0
        assert values[0] > values[-1]

    def test_same_parameter_control(self, mg_setup):
        grid, theta0, S, base = mg_setup
        cfg = base
        ref = attractor_sample(cfg, [theta0], S, transient=5.0, cadence=0.5, count=6)
        again = attractor_sample(cfg, [theta0], S, transient=5.0, cadence=0.5, count=6)
        # identical parameters and data: the sampled clouds coincide
        assert semidistance(again, ref) < 1e-12


class TestSpearman:
    @pytest.mark.parametrize(
        "x, y",
        [
            pytest.param([0.4, 0.2, 0.1, 0.05], [0.9, 0.3, 0.5, 0.1], id="untied"),
            pytest.param([3.0, 1.0, 2.0, 2.0, 5.0, 1.0], [1.0, 1.0, 4.0, 2.0, 2.0, 0.5], id="tied"),
            pytest.param([0.4, 0.2, 0.1], [0.1, 0.2, 0.4], id="reversed"),
            pytest.param([0.4, 0.2, 0.1], [0.3, 0.3, 0.3], id="constant"),
            pytest.param([0.4], [0.3], id="one pair"),
        ],
    )
    def test_equals_scipy_bitwise(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy's constant-input warning
            want = float(stats.spearmanr(x, y).statistic)
        got = _spearman(x, y)
        assert got == want or (np.isnan(got) and np.isnan(want))

    def test_equals_scipy_on_random_ties(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            n = int(rng.integers(2, 12))
            if trial % 2:
                x, y = rng.integers(0, 4, n).astype(float), rng.integers(0, 3, n).astype(float)
            else:
                x, y = rng.standard_normal(n), rng.standard_normal(n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = float(stats.spearmanr(x, y).statistic)
            got = _spearman(x, y)
            assert got == want or (np.isnan(got) and np.isnan(want)), (x, y)
