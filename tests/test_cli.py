"""Tests for config parsing, checkpoint format, CSV output and CLI dispatch."""

import itertools
import json
import os
import platform
import struct
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activescalar import (
    CheckpointError,
    ConfigError,
    GridSpec,
    MultiplierSpec,
    SimulationState,
    SolverConfig,
    random_band_field,
    sobolev_norm,
)
from activescalar.cli import (
    _HEADER,
    CONFIG_KEYS,
    MAGIC,
    CheckpointMeta,
    expected_coefficient_count,
    load_checkpoint,
    main,
    parse_config,
    save_checkpoint,
    write_csv,
)

MINIMAL = """
drift.kind = sqg
solver.kappa = 0.1
solver.gamma = 1
grid.modes = 64
solver.t_end = 1
"""

SMALL = MINIMAL.replace("grid.modes = 64", "grid.modes = 16")

# a cheap mg config for sweep-nu and audit-symbols; solver.kappa is left to the case
MG_SMALL = """
drift.kind = mg
drift.nu = 0.5
grid.modes = 8
solver.t_end = 0.1
solver.dt = 0.05
sweep.transient = 0.1
"""

CUSTOM = """
drift.kind = custom
grid.dimension = 2
grid.modes = 16
drift.table = {tmp}/table.txt
solver.gamma = 1
solver.t_end = 0.1
solver.dt = 0.05
"""
# symbol parallel to k: fails the A1 divergence audit
DIVERGENT_TABLE = "1 0 1.0 0.0 0.0 0.0\n-1 0 1.0 0.0 0.0 0.0\n"
# sqg symbol i(-k2, k1)/|k| on the first shell: passes every audit
SQG_SHELL_TABLE = "1 0 0 0 0 1\n-1 0 0 0 0 -1\n0 1 0 -1 0 0\n0 -1 0 1 0 0\n"


class TestParseConfig:
    def test_minimal_config(self):
        parsed = parse_config(MINIMAL)
        assert parsed.grid == GridSpec(2, 64)
        assert parsed.config.kappa == 0.1
        assert parsed.config.gamma == 1.0
        assert parsed.config.t_end == 1.0
        assert parsed.config.dt is None  # auto
        assert sobolev_norm(parsed.forcing, 0.0) == 0.0

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "solver.bogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "solver.kappa = 0.2\n")

    def test_out_of_range_gamma(self):
        bad = MINIMAL.replace("solver.gamma = 1", "solver.gamma = 3")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_ill_posed_regime_rejected(self):
        text = """
drift.kind = mg
drift.nu = 0
solver.kappa = 0
solver.t_end = 1
grid.modes = 8
init.kind = random_band
"""
        with pytest.raises(ConfigError, match="ill-posed"):
            parse_config(text)

    def test_ill_posed_regime_allows_analytic_data(self):
        text = """
drift.kind = mg
drift.nu = 0
solver.kappa = 0
solver.t_end = 0.01
grid.modes = 8
init.kind = single_mode
init.k = 1 0 1
"""
        parsed = parse_config(text)
        assert parsed.config.kappa == 0.0

    def test_nonzero_mean_forcing_rejected(self):
        text = MINIMAL + "forcing.kind = modes\nforcing.modes = 0 0 1.0 0.0\n"
        with pytest.raises(ConfigError, match="zero mean"):
            parse_config(text)

    def test_mg_vertical_mean_enforced_on_init(self):
        text = """
drift.kind = mg
drift.nu = 0.5
solver.kappa = 0.5
solver.t_end = 1
grid.modes = 8
init.kind = modes
init.modes = 1 1 0 1.0 0.0
"""
        with pytest.raises(ConfigError, match="vertical mean"):
            parse_config(text)

    def test_seed_defaults_flow_through(self):
        a = parse_config(MINIMAL, default_seed=1)
        b = parse_config(MINIMAL, default_seed=1)
        c = parse_config(MINIMAL, default_seed=2)
        assert np.array_equal(a.theta0.coeffs, b.theta0.coeffs)
        assert not np.array_equal(a.theta0.coeffs, c.theta0.coeffs)


# the 46 config keys; adding or dropping one is a schema change
SCHEMA_KEYS = {
    "grid.dimension", "grid.modes",
    "drift.kind", "drift.nu", "drift.table", "drift.strict",
    "solver.kappa", "solver.gamma", "solver.dt", "solver.t_end", "solver.cfl_safety",
    "solver.integrator", "solver.dealias",
    *(f"{prefix}.{name}" for prefix in ("init", "forcing")
      for name in ("kind", "k", "amplitude", "kmin", "kmax", "seed", "tau0", "modes", "path")),
    "diag.hs", "diag.observe_every",
    "sweep.kappas", "sweep.nus", "sweep.norms", "sweep.transient", "sweep.cadence", "sweep.count",
    "lyapunov.n", "lyapunov.renorm_interval", "lyapunov.total_time", "lyapunov.inner",
    "gevrey.r", "gevrey.s", "gevrey.tau_fraction",
}


def _refuses(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return True
    return False


# keys with a numeric, list or boolean parser: every one of them refuses "x"
TYPED_KEYS = [key for key, spec in CONFIG_KEYS.items() if _refuses(spec.parse, "x")]


class TestConfigSchema:
    def test_key_set_and_docs(self):
        assert set(CONFIG_KEYS) == SCHEMA_KEYS and len(CONFIG_KEYS) == 46
        for key, spec in CONFIG_KEYS.items():
            assert spec.doc.strip(), key

    def test_defaults_pass_their_range_checks(self):
        for key, spec in CONFIG_KEYS.items():
            if spec.default is not None:
                assert spec.accepts(spec.default), key

    def test_typed_keys_cover_the_schema(self):
        assert len(TYPED_KEYS) == 34
        assert {"drift.strict", "solver.dt", "diag.hs", "init.k", "lyapunov.n"} <= set(TYPED_KEYS)

    @pytest.mark.parametrize("key", TYPED_KEYS)
    def test_typed_key_checked_whatever_the_command(self, tmp_path, capsys, key):
        # `ascl run` reads none of the sweep, lyapunov or gevrey keys
        keys = dict(line.split(" = ") for line in SMALL.strip().splitlines())
        keys[key] = "x"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert len(err.strip().splitlines()) == 1

    def test_options_hold_every_key_typed(self):
        parsed = parse_config(MINIMAL + "lyapunov.n = 3\nsweep.nus = 0.5 0.25\ndrift.strict = no\n")
        assert set(parsed.options) == SCHEMA_KEYS
        assert parsed.options["lyapunov.n"] == 3
        assert parsed.options["sweep.nus"] == (0.5, 0.25)
        assert parsed.options["drift.strict"] is False
        assert parsed.options["sweep.count"] == 20  # the default
        assert parsed.options["sweep.kappas"] is None  # required by sweep-kappa only

    def test_given_zero_is_not_replaced_by_a_default(self):
        # init.seed = 0 must win over --seed 5
        given_zero = parse_config(MINIMAL + "init.seed = 0\n", default_seed=5)
        seed_zero = parse_config(MINIMAL, default_seed=0)
        assert np.array_equal(given_zero.theta0.coeffs, seed_zero.theta0.coeffs)


def loop_reference_payload(theta):
    """ASCL1 payload written mode by mode, as the format defines it."""
    grid = theta.grid
    half = grid.modes_per_axis // 2
    values = []
    for k in itertools.product(range(-(half - 1), half), repeat=grid.dimension):
        first_nonzero = next((v for v in k if v != 0), 0)
        if first_nonzero > 0:
            v = theta.coeffs[grid.index_of(k)]
            values += [v.real, v.imag]
    return struct.pack(f"<{len(values)}d", *values)


class TestCheckpoint:
    @pytest.mark.parametrize("grid", [GridSpec(2, 16), GridSpec(3, 12)], ids=["2d", "3d"])
    def test_payload_matches_loop_reference(self, tmp_path, grid):
        theta = random_band_field(grid, 1, grid.modes_per_axis / 2, 1.0, 5)
        state = SimulationState(t=0.75, theta=theta, step_count=3)
        path = tmp_path / "s.ckpt"
        save_checkpoint(state, self._config(), path)
        assert path.read_bytes()[_HEADER.size:] == loop_reference_payload(theta)
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded.theta.coeffs, theta.coeffs)

    def _state(self, seed=0):
        grid = GridSpec(2, 16)
        theta = random_band_field(grid, 1, 6, 1.2, seed)
        return SimulationState(t=2.5, theta=theta, step_count=50)

    def _config(self):
        return SolverConfig(
            kappa=0.3, gamma=1.5, drift=MultiplierSpec(kind="sqg"), t_end=5.0
        )

    def test_round_trip_bit_exact(self, tmp_path):
        state = self._state()
        path = tmp_path / "s.ckpt"
        save_checkpoint(state, self._config(), path)
        loaded, meta = load_checkpoint(path)
        assert np.array_equal(loaded.theta.coeffs, state.theta.coeffs)
        assert loaded.t == state.t
        assert meta.kappa == 0.3 and meta.gamma == 1.5 and meta.drift_kind == "sqg"

    def test_expected_count(self):
        # (N-1)^d minus the origin, halved by conjugate symmetry
        assert expected_coefficient_count(GridSpec(2, 16)) == (15**2 - 1) // 2
        assert expected_coefficient_count(GridSpec(3, 12)) == (11**3 - 1) // 2

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(self._state(), self._config(), path)
        data = path.read_bytes()
        bad = tmp_path / "t.ckpt"
        bad.write_bytes(data[: len(data) - 8])
        with pytest.raises(CheckpointError, match="expected"):
            load_checkpoint(bad)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(self._state(), self._config(), path)
        data = bytearray(path.read_bytes())
        data[:5] = b"NOPE1"
        bad = tmp_path / "m.ckpt"
        bad.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(self._state(), self._config(), path)
        data = bytearray(path.read_bytes())
        data[:5] = b"ASCL2"
        bad = tmp_path / "v.ckpt"
        bad.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bad)

    def test_zero_count_degenerate(self, tmp_path):
        bad = tmp_path / "z.ckpt"
        bad.write_bytes(_HEADER.pack(MAGIC, 2, 16, 0.0, 0.1, 1.0, 1, 0.0, 0))
        with pytest.raises(CheckpointError, match="degenerate"):
            load_checkpoint(bad)

    def test_little_endian_layout(self, tmp_path):
        # the first payload float is the real part of the lexicographically
        # first independent mode
        state = self._state()
        path = tmp_path / "s.ckpt"
        save_checkpoint(state, self._config(), path)
        data = path.read_bytes()
        first = struct.unpack_from("<2d", data, _HEADER.size)
        grid = state.theta.grid
        from activescalar.cli import _independent_modes

        k0 = _independent_modes(grid)[0]
        v = state.theta.coeffs[grid.index_of(k0)]
        assert first[0] == v.real and first[1] == v.imag


@st.composite
def checkpoint_cases(draw):
    kind = draw(st.sampled_from(["mg", "sqg", "custom"]))
    dimension = {"mg": 3, "sqg": 2}.get(kind) or draw(st.sampled_from([2, 3]))
    grid = GridSpec(dimension, draw(st.sampled_from([8, 10, 12, 14, 16])))
    nu = draw(st.floats(0.0, 10.0))
    if kind == "custom":
        drift = MultiplierSpec(
            kind="custom", nu=nu, dimension=dimension,
            symbol_fn=lambda k: np.zeros(dimension, complex),
        )
    else:
        drift = MultiplierSpec(kind=kind, nu=nu)
    # shells |k| <= 3 with k_d != 0 lie less than 1.5 apart, so every band holds a mode
    kmin = draw(st.floats(1.0, 2.0))
    theta = random_band_field(
        grid, kmin, kmin + draw(st.floats(1.5, 4.0)), draw(st.floats(0.01, 10.0)),
        draw(st.integers(0, 2**32 - 1)), zero_k3_plane=kind == "mg",
    )
    config = SolverConfig(
        kappa=draw(st.floats(0.0, 1e3)),
        gamma=draw(st.floats(0.0, 2.0, exclude_min=True)),
        drift=drift,
        t_end=1.0,
    )
    t = draw(st.floats(allow_nan=False, allow_infinity=False))
    return SimulationState(t=t, theta=theta, step_count=0), config


class TestCheckpointProperty:
    @settings(max_examples=40, deadline=None)
    @given(case=checkpoint_cases())
    def test_round_trip_bit_exact(self, case):
        state, config = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.ckpt"
            save_checkpoint(state, config, path)
            loaded, meta = load_checkpoint(path)
            # the stored modes come back bit for bit, signs of zeros included
            again = Path(tmp) / "again.ckpt"
            save_checkpoint(loaded, config, again)
            assert again.read_bytes() == path.read_bytes()
        assert loaded.theta.grid == state.theta.grid
        # the conjugate half is rebuilt: equal values, and equal bits off zero
        a, b = loaded.theta.coeffs, state.theta.coeffs
        assert np.array_equal(a, b)
        nonzero = b != 0
        assert np.array_equal(a[nonzero].view(np.uint64), b[nonzero].view(np.uint64))
        assert meta == CheckpointMeta(
            t=state.t, kappa=config.kappa, gamma=config.gamma,
            drift_kind=config.drift.kind, nu=config.drift.nu,
        )


class TestCsv:
    def test_header_and_precision(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b"], [[1.0 / 3.0, 2], [0.1, 3]])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].startswith("0.33333333333333331")
        # 17 significant digits round-trip exactly
        assert float(lines[1].split(",")[0]) == 1.0 / 3.0


class TestMainDispatch:
    def _write(self, tmp_path, text, name="run.cfg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_run_and_determinism(self, tmp_path):
        cfg = self._write(tmp_path, SMALL + "solver.dt = 0.05\ninit.seed = 3\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", cfg, "--out", str(out1)]) == 0
        assert main(["run", cfg, "--out", str(out2)]) == 0
        assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
        assert (out1 / "final.ckpt").read_bytes() == (out2 / "final.ckpt").read_bytes()

    def test_run_t_end_zero_single_row(self, tmp_path):
        cfg = self._write(
            tmp_path, SMALL.replace("solver.t_end = 1", "solver.t_end = 0")
        )
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 2  # header + initial row

    def test_config_error_exit_code(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL + "solver.bogus = 1\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param("run", SMALL + "solver.dt = fast", id="solver.dt = fast"),
            pytest.param("run", SMALL + "diag.observe_every = 0", id="diag.observe_every = 0"),
            pytest.param("run", SMALL + "diag.observe_every = 2.5", id="diag.observe_every = 2.5"),
            pytest.param(
                "run", CUSTOM + "solver.kappa = 0.1\ndrift.strict = true", id="strict table fails A1"
            ),
            pytest.param(
                "run", CUSTOM + "solver.kappa = 0.1\ndrift.strict = false", id="lenient table fails A1"
            ),
            pytest.param("run", SMALL + "diag.hs = one", id="diag.hs = one"),
            pytest.param("lyapunov", SMALL + "lyapunov.n = four", id="lyapunov.n = four"),
            pytest.param(
                "run",
                SMALL + "init.kind = from_checkpoint\ninit.path = {tmp}/missing.ckpt",
                id="missing checkpoint",
            ),
            pytest.param("run", SMALL + "solver.dt = 0.9", id="dt far above CFL"),
            pytest.param(
                "run", SMALL + "init.kind = single_mode\ninit.k = one 0", id="init.k = one 0"
            ),
            pytest.param(
                "run", SMALL + "init.kind = modes\ninit.modes = 1 0 half 0", id="init.modes = 1 0 half 0"
            ),
            pytest.param("sweep-kappa", SMALL + "sweep.kappas = 0.1 x", id="sweep.kappas = 0.1 x"),
            pytest.param(
                "sweep-kappa",
                SMALL + "solver.dt = 5\nsweep.kappas = 0.1 0.05",
                id="sweep member dt far above CFL",
            ),
            pytest.param("lyapunov", SMALL + "lyapunov.inner = xyz", id="lyapunov.inner = xyz"),
            pytest.param("lyapunov", SMALL + "lyapunov.n = 0", id="lyapunov.n = 0"),
            pytest.param(
                "lyapunov",
                SMALL + "lyapunov.renorm_interval = 0.1\nlyapunov.total_time = 0.15",
                id="lyapunov.total_time below two intervals",
            ),
            pytest.param(
                "lyapunov", SMALL + "lyapunov.renorm_interval = 0", id="lyapunov.renorm_interval = 0"
            ),
            pytest.param("run", SMALL + "init.kmin = 0", id="init.kmin = 0"),
            pytest.param(
                "run", SMALL + "init.kmin = 5\ninit.kmax = 2", id="init.kmax below init.kmin"
            ),
            pytest.param(
                "run", SMALL + "init.kind = analytic_decay\ninit.tau0 = 0", id="init.tau0 = 0"
            ),
            pytest.param(
                "sweep-nu",
                MG_SMALL + "solver.kappa = 0.1\nsweep.nus = 0.4 0.2\nsweep.count = 0",
                id="sweep.count = 0",
            ),
            pytest.param(
                "sweep-nu",
                MG_SMALL + "solver.kappa = 0.1\nsweep.nus = 0.4 0.2\nsweep.cadence = 0",
                id="sweep.cadence = 0",
            ),
            pytest.param(
                "sweep-nu",
                MG_SMALL + "solver.kappa = 0\nsweep.nus = 0.4 0.2\nsweep.count = 2",
                id="sweep-nu with solver.kappa = 0",
            ),
            pytest.param(
                "audit-symbols", MG_SMALL + "solver.kappa = 0.1\nsweep.nus = -1", id="sweep.nus = -1"
            ),
            pytest.param("run", SMALL + "solver.dealias = 1/2", id="solver.dealias = 1/2"),
            pytest.param(
                "run",
                CUSTOM.replace("table.txt", "words.txt") + "solver.kappa = 0.1",
                id="table entry not a number",
            ),
            pytest.param(
                "run",
                CUSTOM.replace("table.txt", "missing.txt") + "solver.kappa = 0.1",
                id="missing table file",
            ),
        ],
    )
    def test_malformed_value_one_line_exit_one(self, tmp_path, capsys, command, text):
        (tmp_path / "table.txt").write_text(DIVERGENT_TABLE)
        (tmp_path / "words.txt").write_text("1 x 0 0 0 1\n")
        cfg = self._write(tmp_path, text.format(tmp=tmp_path) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the lenient table's audit warning
            assert main([command, cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def _count_table_builds(self, monkeypatch):
        import activescalar
        from activescalar import experiments, multipliers, stepping, tangent

        calls = []
        build = multipliers.build_symbol_table

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        for mod in (activescalar, experiments, multipliers, stepping, tangent):
            monkeypatch.setattr(mod, "build_symbol_table", counting)
        return calls

    def test_custom_table_tabulated_once_per_run(self, tmp_path, monkeypatch):
        # kappa = 0 also asks whether the custom symbol is bounded
        (tmp_path / "table.txt").write_text(SQG_SHELL_TABLE)
        cfg = self._write(tmp_path, CUSTOM.format(tmp=tmp_path) + "solver.kappa = 0\n")
        calls = self._count_table_builds(monkeypatch)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["sweep-kappa", "gevrey-track"])
    def test_custom_table_tabulated_once_per_study(self, tmp_path, monkeypatch, command):
        # two sweep members and the kappa = 0 reference share the loaded table
        (tmp_path / "table.txt").write_text(SQG_SHELL_TABLE)
        cfg = self._write(
            tmp_path,
            CUSTOM.format(tmp=tmp_path)
            + "solver.kappa = 0.1\nsweep.kappas = 0.1 0.05\ninit.kind = analytic_decay\n",
        )
        calls = self._count_table_builds(monkeypatch)
        assert main([command, cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_unsorted_sweep_exit_code(self, tmp_path):
        cfg = self._write(
            tmp_path, SMALL + "solver.dt = 0.05\nsweep.kappas = 0.001 0.01\n"
        )
        assert main(["sweep-kappa", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_audit_symbols_writes_report(self, tmp_path):
        text = """
drift.kind = mg
drift.nu = 0.5
solver.kappa = 0.5
solver.t_end = 1
grid.modes = 12
sweep.nus = 1.0 0.5
init.kind = random_band
"""
        cfg = self._write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["audit-symbols", cfg, "--out", str(out)]) == 0
        report = (out / "assumption_report.csv").read_text().splitlines()
        assert report[0] == "quantity,value"
        quantities = {line.split(",")[0] for line in report[1:]}
        assert {"div_max", "c0_hat", "lipschitz_hat"} <= quantities
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["extra"]["flags"] == []

    def test_audit_flags_exit_code_three(self, tmp_path):
        # a divergence-violating custom table loaded leniently still fails
        # the audit command with the property-violation exit code
        table = tmp_path / "bad_table.txt"
        table.write_text("1 0 1.0 0.0 0.0 0.0\n-1 0 1.0 0.0 0.0 0.0\n")
        text = f"""
drift.kind = custom
drift.table = {table}
drift.strict = false
grid.dimension = 2
grid.modes = 16
solver.kappa = 0.1
solver.gamma = 1
solver.t_end = 1
"""
        cfg = self._write(tmp_path, text)
        out = tmp_path / "o"
        with pytest.warns(UserWarning):
            code = main(["audit-symbols", cfg, "--out", str(out)])
        assert code == 3
        assert (out / "assumption_report.csv").exists()

    def test_sweep_kappa_csv_contract(self, tmp_path):
        cfg = self._write(
            tmp_path,
            SMALL.replace("solver.t_end = 1", "solver.t_end = 0.25")
            + "solver.dt = 0.05\n"
            + "sweep.kappas = 0.1 0.01\ninit.kind = analytic_decay\ninit.tau0 = 0.8\n",
        )
        out = tmp_path / "o"
        assert main(["sweep-kappa", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep_kappa.csv").read_text().splitlines()
        assert lines[0] == "param,t,norm_name,value"
        assert len(lines) == 3  # two kappas, one norm, one time

    def test_checkpoint_every(self, tmp_path):
        cfg = self._write(tmp_path, SMALL + "solver.dt = 0.05\n")
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out), "--checkpoint-every", "10"]) == 0
        assert (out / "checkpoint_00000010.ckpt").exists()
        assert (out / "checkpoint_00000020.ckpt").exists()

    def test_lyapunov_csv(self, tmp_path):
        text = SMALL.replace("solver.kappa = 0.1", "solver.kappa = 1.0") + (
            "solver.dt = 0.05\n"
            "lyapunov.n = 2\nlyapunov.renorm_interval = 0.5\nlyapunov.total_time = 5\n"
        )
        cfg = self._write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["lyapunov", cfg, "--out", str(out)]) == 0
        lines = (out / "lyapunov.csv").read_text().splitlines()
        assert lines[0] == "index,exponent,cumulative_sum"
        assert len(lines) == 3

    def test_gevrey_track_csv(self, tmp_path):
        text = MINIMAL.replace("grid.modes = 64", "grid.modes = 32").replace(
            "solver.t_end = 1", "solver.t_end = 0.2"
        ) + (
            "solver.dt = 0.02\n"
            "init.kind = analytic_decay\ninit.tau0 = 0.8\n"
        )
        cfg = self._write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["gevrey-track", cfg, "--out", str(out)]) == 0
        lines = (out / "gevrey_track.csv").read_text().splitlines()
        assert lines[0] == "t,tau_hat,gevrey_norm"
        assert len(lines) >= 2

    def test_from_checkpoint_init(self, tmp_path):
        cfg1 = self._write(tmp_path, SMALL + "solver.dt = 0.05\n", "a.cfg")
        out = tmp_path / "o"
        assert main(["run", cfg1, "--out", str(out)]) == 0
        cfg2 = self._write(
            tmp_path,
            SMALL
            + "solver.dt = 0.05\n"
            + f"init.kind = from_checkpoint\ninit.path = {out / 'final.ckpt'}\n",
            "b.cfg",
        )
        parsed = parse_config(Path(cfg2).read_text())
        loaded, _ = load_checkpoint(out / "final.ckpt")
        assert np.array_equal(parsed.theta0.coeffs, loaded.theta.coeffs)


class TestNormReproducibility:
    def test_recorded_norms_reproducible_from_checkpoint(self, tmp_path):
        # every recorded norm must be recomputable from the checkpointed
        # field to 1e-12 relative
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "solver.dt = 0.05\ninit.seed = 21\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0

        from activescalar import linf_norm, sobolev_norm

        state, _ = load_checkpoint(out / "final.ckpt")
        lines = (out / "diagnostics.csv").read_text().splitlines()
        header = lines[0].split(",")
        last = [float(v) for v in lines[-1].split(",")]
        row = dict(zip(header, last))
        assert abs(row["t"] - state.t) < 1e-12
        l2 = sobolev_norm(state.theta, 0.0)
        h1 = sobolev_norm(state.theta, 1.0)
        linf = linf_norm(state.theta)
        assert abs(row["l2"] - l2) <= 1e-12 * max(l2, 1.0)
        assert abs(row["h1"] - h1) <= 1e-12 * max(h1, 1.0)
        assert abs(row["linf"] - linf) <= 1e-12 * max(linf, 1.0)

    def test_3d_checkpoint_round_trip(self, tmp_path):
        import numpy as np

        from activescalar import (
            GridSpec,
            MultiplierSpec,
            SimulationState,
            SolverConfig,
            random_band_field,
        )

        grid = GridSpec(3, 12)
        theta = random_band_field(grid, 1, 4, 1.0, 22, zero_k3_plane=True)
        state = SimulationState(t=1.5, theta=theta, step_count=3)
        cfg = SolverConfig(
            kappa=0.4, gamma=2.0, drift=MultiplierSpec(kind="mg", nu=0.3), t_end=2.0
        )
        path = tmp_path / "mg.ckpt"
        save_checkpoint(state, cfg, path)
        loaded, meta = load_checkpoint(path)
        assert np.array_equal(loaded.theta.coeffs, theta.coeffs)
        assert meta.drift_kind == "mg" and meta.nu == 0.3

    def test_threads_flag_deterministic_csv(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            SMALL.replace("solver.t_end = 1", "solver.t_end = 0.25")
            + "solver.dt = 0.05\nsweep.kappas = 0.1 0.01\n"
            + "init.kind = analytic_decay\ninit.tau0 = 0.8\n"
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sweep-kappa", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep-kappa", str(cfg), "--out", str(out2), "--threads", "3"]) == 0
        assert (out1 / "sweep_kappa.csv").read_bytes() == (
            out2 / "sweep_kappa.csv"
        ).read_bytes()


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    import activescalar

    src = str(Path(activescalar.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestProcessCost:
    def test_import_leaves_out_scipy_stats(self):
        out = _run_python(
            """
            import sys
            import activescalar, activescalar.cli
            print("scipy.stats" in sys.modules)
            """
        )
        assert out.strip() == "False"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="the scratch allocation setting applies to glibc only",
    )
    def test_steady_state_call_reuses_heap_pages(self, tmp_path):
        # mg 24^3, five steps: each step allocates 0.1-1 MB scratch arrays.
        # Served by mmap they fault their pages in on every call (thousands
        # of minor faults); kept on the heap a warm call faults almost none.
        # The first call builds caches and the second may still grow the
        # heap once, so the third call is the one measured.
        cfg = tmp_path / "mg.cfg"
        cfg.write_text(
            "drift.kind = mg\ndrift.nu = 0.5\ngrid.modes = 24\nsolver.kappa = 0.05\n"
            "solver.t_end = 0.1\nsolver.dt = 0.02\n"
            "forcing.kind = random_band\nforcing.kmax = 3\nforcing.amplitude = 0.5\n"
        )
        out = _run_python(
            f"""
            import resource
            from activescalar.cli import main

            for i in range(3):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                assert main(["run", {str(cfg)!r}, "--out", {str(tmp_path)!r} + f"/o{{i}}"]) == 0
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        )
        assert int(out) < 200
