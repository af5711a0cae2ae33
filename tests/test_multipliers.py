"""Tests for the constitutive laws: symbols, tables, drift application, audits."""

import numpy as np
import pytest

from activescalar import (
    GridSpec,
    MultiplierSpec,
    SpectralField,
    apply_drift,
    build_symbol_table,
    divergence_residual,
    load_custom_symbol_file,
    mg_symbol,
    random_band_field,
    single_mode_field,
    sqg_symbol,
    symbol_lipschitz_estimate,
    to_physical,
    verify_assumptions,
)
from activescalar.errors import ConfigError, ContractViolationError, GridMismatchError
from activescalar.multipliers import estimated_symbol_order, symbol_is_bounded


class TestMgSymbol:
    def test_hand_values_nu_zero(self):
        # D = 2 at k=(1,0,1): M = (0, -1, 0)
        np.testing.assert_allclose(mg_symbol((1, 0, 1), 0.0), [0, -1, 0], atol=1e-15)
        # D = 3 at k=(0,1,1): M = (2/3, -1/3, 1/3)
        np.testing.assert_allclose(
            mg_symbol((0, 1, 1), 0.0), [2 / 3, -1 / 3, 1 / 3], atol=1e-15
        )

    def test_hand_value_nu_one(self):
        # k2^2 + nu |k|^4 = 5, D = 27 at k=(0,1,1)
        np.testing.assert_allclose(
            mg_symbol((0, 1, 1), 1.0), [2 / 27, -5 / 27, 5 / 27], atol=1e-15
        )

    @pytest.mark.parametrize("nu", [0.0, 0.3, 2.0])
    def test_zero_on_k3_plane(self, nu):
        assert np.all(mg_symbol((5, -3, 0), nu) == 0)
        assert np.all(mg_symbol((0, 0, 0), nu) == 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_divergence_free_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            k = tuple(int(v) for v in rng.integers(-8, 9, size=3))
            m = mg_symbol(k, float(rng.uniform(0, 2)))
            assert abs(np.dot(np.array(k, float), m)) < 1e-13 * max(
                1.0, float(np.max(np.abs(m)))
            )

    def test_even_in_k(self):
        for k in [(1, 2, 3), (-2, 1, 1), (4, -4, 2)]:
            minus = tuple(-v for v in k)
            np.testing.assert_allclose(mg_symbol(k, 0.7), mg_symbol(minus, 0.7))


class TestSqgSymbol:
    def test_axis_values(self):
        np.testing.assert_allclose(sqg_symbol((1, 0)), [0, 1j], atol=1e-15)
        np.testing.assert_allclose(sqg_symbol((0, 1)), [-1j, 0], atol=1e-15)

    def test_orthogonal_to_k(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = tuple(int(v) for v in rng.integers(-10, 11, size=2))
            m = sqg_symbol(k)
            assert abs(np.dot(np.array(k, float), m)) < 1e-14

    def test_unit_modulus(self):
        for k in [(1, 0), (3, -4), (2, 2)]:
            assert abs(np.linalg.norm(sqg_symbol(k)) - 1.0) < 1e-14


class TestSymbolTable:
    def test_mg_table_divergence_audit(self):
        table = build_symbol_table(MultiplierSpec(kind="mg", nu=0.5), GridSpec(3, 16))
        assert float(np.max(table.divergence_ratio())) < 1e-13

    def test_sqg_unit_modulus_table(self):
        table = build_symbol_table(MultiplierSpec(kind="sqg"), GridSpec(2, 32))
        mag = table.magnitude()
        mask = table.grid.mode_mask & (table.grid.k_abs > 0)
        assert np.max(np.abs(mag[mask] - 1.0)) < 1e-14

    def test_custom_zero_table(self):
        spec = MultiplierSpec(
            kind="custom",
            dimension=2,
            symbol_fn=lambda k: np.zeros(2, complex),
        )
        table = build_symbol_table(spec, GridSpec(2, 16))
        assert np.all(table.values == 0)

    def test_table_matches_pointwise_symbol(self):
        grid = GridSpec(3, 12)
        table = build_symbol_table(MultiplierSpec(kind="mg", nu=0.25), grid)
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = tuple(int(v) for v in rng.integers(-5, 6, size=3))
            idx = grid.index_of(k)
            got = np.array([table.values[j][idx] for j in range(3)])
            np.testing.assert_allclose(got, mg_symbol(k, 0.25), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(GridMismatchError):
            build_symbol_table(MultiplierSpec(kind="sqg"), GridSpec(3, 12))


class TestApplyDrift:
    def test_sqg_cosine(self):
        grid = GridSpec(2, 16)
        table = build_symbol_table(MultiplierSpec(kind="sqg"), grid)
        theta = single_mode_field(grid, (1, 0), 1.0)
        u = apply_drift(table, theta)
        x = np.arange(16) * 2 * np.pi / 16
        expected_u2 = -np.sin(x)[:, None] * np.ones(16)[None, :]
        assert np.max(np.abs(to_physical(u.components[0]))) < 1e-14
        assert np.max(np.abs(to_physical(u.components[1]) - expected_u2)) < 1e-14

    def test_zero_theta(self):
        grid = GridSpec(2, 16)
        table = build_symbol_table(MultiplierSpec(kind="sqg"), grid)
        u = apply_drift(table, SpectralField.zeros(grid))
        for comp in u.components:
            assert np.all(comp.coeffs == 0)

    def test_mg_vertical_mean_modes_give_zero_drift(self):
        grid = GridSpec(3, 12)
        table = build_symbol_table(MultiplierSpec(kind="mg", nu=0.5), grid)
        theta = single_mode_field(grid, (2, 1, 0), 1.0)  # supported on k3 = 0
        u = apply_drift(table, theta)
        for comp in u.components:
            assert np.all(comp.coeffs == 0)

    def test_output_divergence_free(self):
        grid = GridSpec(3, 12)
        table = build_symbol_table(MultiplierSpec(kind="mg", nu=0.1), grid)
        theta = random_band_field(grid, 1, 4, 1.0, seed=5, zero_k3_plane=True)
        assert divergence_residual(apply_drift(table, theta)) < 1e-13


class TestVerifyAssumptions:
    def test_mg_probe_sweep(self):
        report = verify_assumptions(
            MultiplierSpec(kind="mg", nu=0.0), GridSpec(3, 16), [0.0, 0.5, 1.0]
        )
        assert report.div_max < 1e-13
        assert report.flags == []
        assert np.isfinite(report.c0_hat) and report.c0_hat > 0
        for nu, c2 in report.c2_hat.items():
            assert np.isfinite(c2)
        assert report.kmax_used == 7

    def test_sqg_c0_is_one(self):
        report = verify_assumptions(MultiplierSpec(kind="sqg"), GridSpec(2, 32))
        assert abs(report.c0_hat - 1.0) < 1e-12
        assert report.flags == []

    def test_mg_empty_probe_rejected(self):
        with pytest.raises(ValueError):
            verify_assumptions(MultiplierSpec(kind="mg", nu=0.5), GridSpec(3, 12), [])

    def test_c2_finite_per_nu_not_monotone_assertion(self):
        # only finiteness per nu is contracted, not monotonicity across nu
        report = verify_assumptions(
            MultiplierSpec(kind="mg", nu=0.0), GridSpec(3, 12), [0.01, 1.0]
        )
        assert all(np.isfinite(v) for v in report.c2_hat.values())


class TestLipschitz:
    def test_refinement_stability(self):
        fam = lambda nu: MultiplierSpec(kind="mg", nu=nu)
        coarse = symbol_lipschitz_estimate(fam, GridSpec(3, 16), 0.5, 0.6, (0.4, 1.0))
        fine = symbol_lipschitz_estimate(fam, GridSpec(3, 32), 0.5, 0.6, (0.4, 1.0))
        assert 0.8 < fine / coarse < 1.2

    def test_difference_quotient_finite(self):
        fam = lambda nu: MultiplierSpec(kind="mg", nu=nu)
        est = symbol_lipschitz_estimate(fam, GridSpec(3, 12), 0.5, 0.5 + 1e-6, (0.4, 1.0))
        assert np.isfinite(est) and est > 0

    def test_nu_independent_symbol_gives_zero(self):
        spec = MultiplierSpec(
            kind="custom", dimension=2, symbol_fn=lambda k: sqg_symbol(k)
        )
        est = symbol_lipschitz_estimate(
            lambda nu: spec, GridSpec(2, 16), 0.5, 0.75, (0.4, 1.0)
        )
        assert est == 0.0

    def test_equal_nu_rejected(self):
        fam = lambda nu: MultiplierSpec(kind="mg", nu=nu)
        with pytest.raises(ValueError):
            symbol_lipschitz_estimate(fam, GridSpec(3, 12), 0.5, 0.5, (0.4, 1.0))

    def test_out_of_window_rejected(self):
        fam = lambda nu: MultiplierSpec(kind="mg", nu=nu)
        with pytest.raises(ValueError):
            symbol_lipschitz_estimate(fam, GridSpec(3, 12), 0.2, 0.5, (0.4, 1.0))


class TestSymbolOrderClassification:
    def test_mg_orders(self):
        grid = GridSpec(3, 16)
        singular = build_symbol_table(MultiplierSpec(kind="mg", nu=0.0), grid)
        smoothing = build_symbol_table(MultiplierSpec(kind="mg", nu=1.0), grid)
        assert estimated_symbol_order(singular) > 0.5
        assert estimated_symbol_order(smoothing) < -1.0

    def test_bounded_classification(self):
        grid2 = GridSpec(2, 16)
        grid3 = GridSpec(3, 12)
        assert symbol_is_bounded(MultiplierSpec(kind="sqg"), grid2)
        assert symbol_is_bounded(MultiplierSpec(kind="mg", nu=0.5), grid3)
        assert not symbol_is_bounded(MultiplierSpec(kind="mg", nu=0.0), grid3)


class TestCustomSymbolFile:
    def test_load_and_apply(self, tmp_path):
        # the perpendicular Riesz law at two shells, everything else zero
        path = tmp_path / "table.txt"
        lines = []
        for k in [(1, 0), (0, 1), (-1, 0), (0, -1)]:
            m = sqg_symbol(k)
            nums = " ".join(f"{v.real} {v.imag}" for v in m)
            lines.append(f"{k[0]} {k[1]} {nums}")
        path.write_text("\n".join(lines) + "\n")
        grid = GridSpec(2, 16)
        table = load_custom_symbol_file(path, 2, grid, strict=True)
        idx = grid.index_of((1, 0))
        np.testing.assert_allclose(
            [table.values[j][idx] for j in range(2)], sqg_symbol((1, 0)), atol=1e-14
        )
        # unlisted wavevectors default to zero
        assert table.values[0][grid.index_of((3, 3))] == 0

    def test_strict_rejects_divergent_table(self, tmp_path):
        path = tmp_path / "bad.txt"
        # symbol parallel to k: maximally divergence-violating
        path.write_text("1 0 1.0 0.0 0.0 0.0\n-1 0 1.0 0.0 0.0 0.0\n")
        with pytest.raises(ContractViolationError):
            load_custom_symbol_file(path, 2, GridSpec(2, 16), strict=True)

    def test_lenient_warns(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 1.0 0.0 0.0 0.0\n-1 0 1.0 0.0 0.0 0.0\n")
        with pytest.warns(UserWarning):
            load_custom_symbol_file(path, 2, GridSpec(2, 16), strict=False)

    @pytest.mark.parametrize("grid", [GridSpec(2, 8), GridSpec(3, 8)], ids=["2d", "3d"])
    def test_scatter_equals_site_loop(self, tmp_path, grid):
        # random values on random wavevectors, some outside the lattice, plus
        # a duplicate (last wins), a Nyquist row and k = 0
        d, half = grid.dimension, grid.modes_per_axis // 2
        rng = np.random.default_rng(d)
        ks = [tuple(int(c) for c in rng.integers(-half - 2, half + 2, d)) for _ in range(60)]
        ks += [ks[0], (-half,) + (1,) * (d - 1), (0,) * d]
        lines = [
            " ".join(map(str, k)) + " " + " ".join(repr(float(v)) for v in rng.standard_normal(2 * d))
            for k in ks
        ]
        path = tmp_path / "table.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning):  # random values fail the audits
            table = load_custom_symbol_file(path, d, grid, strict=False)
        listed = table.spec.symbol_fn
        loop = MultiplierSpec(kind="custom", dimension=d, symbol_fn=lambda k: listed(k))
        assert np.array_equal(table.values, build_symbol_table(loop, grid).values)
        assert np.count_nonzero(table.values) > 0

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1 0 1.0\n")
        with pytest.raises(ContractViolationError):
            load_custom_symbol_file(path, 2, GridSpec(2, 16))

    @pytest.mark.parametrize("line", ["1 x 0 0 0 1", "1 0 0 0 0 one", "1.5 0 0 0 0 1"])
    def test_non_numeric_entry_names_its_line(self, tmp_path, line):
        path = tmp_path / "words.txt"
        path.write_text("0 1 0 -1 0 0\n" + line + "\n")
        with pytest.raises(ContractViolationError, match=rf"words\.txt:2: not a number"):
            load_custom_symbol_file(path, 2, GridSpec(2, 16))

    def test_unreadable_path_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read custom symbol table"):
            load_custom_symbol_file(tmp_path / "missing.txt", 2, GridSpec(2, 16))
