"""Configuration parsing, checkpointing, CSV emission and run orchestration.

Config files are flat ``key = value`` text with one dotted section level
(``drift.kind = sqg``); see ``CONFIG_KEYS`` for the full schema.  Binary
checkpoints use the little-endian "ASCL1" format: a fixed header followed
by (re, im) float64 pairs of the retained independent modes in
lexicographic wavevector order.  All files are written atomically
(temp file + rename) and every run directory carries a manifest recording
the configuration echo and content hashes of the inputs.

Exit codes: 0 success, 1 configuration error or another refused input,
2 numerical blow-up, 3 property-violation flags raised by an audit.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .diagnostics import DiagnosticRecord, analyticity_radius_estimate, record
from .errors import ActiveScalarError, BlowUpError, CheckpointError, ConfigError, SweepAbortedError
from .experiments import (
    SweepPlan,
    attractor_sample,
    field_digest,
    gevrey_radius_track,
    kappa_sweep,
    nu_sweep_attractor,
)
from .grid import (
    GridSpec,
    SpectralField,
    analytic_decay_field,
    random_band_field,
    single_mode_field,
)
from .multipliers import MultiplierSpec, SymbolTable, load_custom_symbol_file, verify_assumptions
from .stepping import SimulationState, SolverConfig, run
from .tangent import INNER_PRODUCTS, lyapunov_run

__all__ = [
    "parse_config",
    "ParsedRun",
    "save_checkpoint",
    "load_checkpoint",
    "write_csv",
    "main",
]

MAGIC = b"ASCL1"
_DRIFT_CODES = {"mg": 0, "sqg": 1, "custom": 2}
_DRIFT_NAMES = {v: k for k, v in _DRIFT_CODES.items()}

# ---------------------------------------------------------------------------
# Config schema

_GENERATORS = ("single_mode", "random_band", "analytic_decay", "modes", "from_checkpoint", "none")
_NORMS = {"l2": ("l2",), "h1": ("hs", 1.0)}


@dataclass(frozen=True)
class _Key:
    """One config key: text parser, default, doc and optional range check.

    ``valid`` checks the parsed value, or each item of a list value.  A
    default of None marks a key that is required or whose default depends
    on other keys; ``parse_config`` fills those in.
    """

    parse: Callable[[str], object]
    default: object
    doc: str
    valid: Callable[[object], bool] | None = None

    def accepts(self, value) -> bool:
        items = value if isinstance(value, (list, tuple)) else (value,)
        return self.valid is None or all(self.valid(v) for v in items)


def _typed(conv: Callable[[str], object], failure: str) -> Callable[[str], object]:
    """Parser applying ``conv``; a failure reads '{failure} {text!r}'."""

    def parse(text: str):
        try:
            return conv(text)
        except (KeyError, ValueError):
            raise ValueError(f"{failure} {text!r}") from None

    return parse


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_FLOAT = _typed(float, "not a number:")
_INT = _typed(int, "not an integer:")
_FLOATS = _typed(lambda text: tuple(float(p) for p in text.split()), "not a list of floats:")
_INTS = _typed(lambda text: tuple(int(p) for p in text.split()), "not a list of ints:")
_BOOL = _typed(lambda text: _BOOLS[text.lower()], "expected a boolean, got")
_DT = _typed(lambda text: None if text.lower() == "auto" else float(text), "not a number:")


def _at_least(bound, strict: bool = False):
    return lambda value: value > bound if strict else value >= bound


def _one_of(choices):
    return lambda value: value in choices


# The nine generator keys, written once for the init. and forcing. prefixes.
_GENERATOR_KEYS = {
    "kind": _Key(str, None, " | ".join(_GENERATORS) + " (default random_band for init, none for "
                 "forcing)", _one_of(_GENERATORS)),
    "k": _Key(_INTS, None, "wavevector for single_mode, e.g. '1 0'"),
    "amplitude": _Key(_FLOAT, 1.0, "generator amplitude"),
    "kmin": _Key(_FLOAT, 1.0, "random_band lower shell, > 0", _at_least(0, strict=True)),
    "kmax": _Key(_FLOAT, None, "random_band upper shell, >= kmin (default max(2, N/6))",
                 _at_least(0, strict=True)),
    "seed": _Key(_INT, None, "generator seed, >= 0 (default --seed, plus 1 for forcing)",
                 _at_least(0)),
    "tau0": _Key(_FLOAT, 0.8, "analytic_decay radius, > 0", _at_least(0, strict=True)),
    "modes": _Key(str, None, "inline modes 'k.. re im; ...' for the modes generator"),
    "path": _Key(str, None, "checkpoint path for from_checkpoint"),
}

CONFIG_KEYS = {
    "grid.dimension": _Key(_INT, None, "grid dimension (2 or 3); default set by drift kind"),
    "grid.modes": _Key(_INT, None, "even modes per axis, >= 8 (default 64 in 2-d, 24 in 3-d)"),
    "drift.kind": _Key(str.lower, None, "mg | sqg | custom (required)", _one_of(_DRIFT_CODES)),
    "drift.nu": _Key(_FLOAT, 0.0, "mg viscosity parameter, >= 0", _at_least(0)),
    "drift.table": _Key(str, None, "path to a custom symbol table file"),
    "drift.strict": _Key(_BOOL, True, "reject (true) or warn (false) on table audit failures"),
    "solver.kappa": _Key(_FLOAT, None, "thermal diffusivity, >= 0 (required)"),
    "solver.gamma": _Key(_FLOAT, None, "dissipation power in (0, 2]; default 1 for sqg, else 2"),
    "solver.dt": _Key(_DT, None, "time step, or 'auto' (default)"),
    "solver.t_end": _Key(_FLOAT, None, "horizon, >= 0 (required)"),
    "solver.cfl_safety": _Key(_FLOAT, 0.5, "CFL safety factor in (0, 1]"),
    "solver.integrator": _Key(lambda t: t.lower().replace("-", ""), "etdrk2", "etdrk2 | ifrk4"),
    "solver.dealias": _Key(str, "2/3", "2/3 | none"),
    **{f"{p}.{name}": key for p in ("init", "forcing") for name, key in _GENERATOR_KEYS.items()},
    "diag.hs": _Key(_FLOATS, (1.0,), "Sobolev exponents to record, each >= 0", _at_least(0)),
    "diag.observe_every": _Key(_INT, 1, "record every n-th step, >= 1", _at_least(1)),
    "sweep.kappas": _Key(_FLOATS, None, "sweep-kappa kappas, descending, each >= 0", _at_least(0)),
    "sweep.nus": _Key(_FLOATS, None, "sweep-nu nus, descending, each >= 0", _at_least(0)),
    "sweep.norms": _Key(str.split, ("l2",), "norm labels, each l2 | h1", _one_of(_NORMS)),
    "sweep.transient": _Key(_FLOAT, 10.0, "attractor transient time, >= 0", _at_least(0)),
    "sweep.cadence": _Key(_FLOAT, 0.5, "attractor sample spacing, > 0", _at_least(0, strict=True)),
    "sweep.count": _Key(_INT, 20, "snapshots per cloud, >= 1", _at_least(1)),
    "lyapunov.n": _Key(_INT, 4, "number of tangent directions, >= 1", _at_least(1)),
    "lyapunov.renorm_interval": _Key(_FLOAT, 0.5, "time between re-orthonormalizations, > 0",
                                     _at_least(0, strict=True)),
    "lyapunov.total_time": _Key(_FLOAT, 50.0, "averaging horizon, >= 2 renorm_interval"),
    "lyapunov.inner": _Key(str, "h1", " | ".join(INNER_PRODUCTS), _one_of(INNER_PRODUCTS)),
    "gevrey.r": _Key(_FLOAT, 0.0, "Gevrey derivative index, >= 0", _at_least(0)),
    "gevrey.s": _Key(_FLOAT, 1.0, "Gevrey class index, >= 1", _at_least(1)),
    "gevrey.tau_fraction": _Key(_FLOAT, 0.5, "tau as a fraction of tau_hat(0), >= 0", _at_least(0)),
}


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _read_options(kv: dict[str, str]) -> dict[str, object]:
    """Every schema key as a typed value: the given one, parsed and
    range-checked, else the schema default."""
    options = {key: spec.default for key, spec in CONFIG_KEYS.items()}
    for key, text in kv.items():
        spec = CONFIG_KEYS[key]
        try:
            value = spec.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        if not spec.accepts(value):
            raise ConfigError(f"{key}: invalid value {text!r}; {spec.doc}")
        options[key] = value
    return options


def _required(options: dict[str, object], key: str, context: str = ""):
    value = options[key]
    if value is None:
        raise ConfigError(f"{key} is required{context}")
    return value


def _default(value, fallback):
    """``fallback`` when the key was not given (``value`` is None)."""
    return fallback if value is None else value


def _parse_mode_list(spec: str, dimension: int) -> dict[tuple[int, ...], complex]:
    modes: dict[tuple[int, ...], complex] = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) != dimension + 2:
            raise ConfigError(
                f"mode entry {chunk!r}: expected {dimension} integers + re + im"
            )
        try:
            k = tuple(int(p) for p in parts[:dimension])
            value = complex(float(parts[-2]), float(parts[-1]))
        except ValueError as exc:
            raise ConfigError(f"mode entry {chunk!r}: not a number") from exc
        if all(v == 0 for v in k):
            raise ConfigError("forcing/init modes must have zero mean: k = 0 listed")
        modes[k] = value
    if not modes:
        raise ConfigError("empty mode list")
    return modes


_ANALYTIC_GENERATORS = {"single_mode", "analytic_decay", "modes"}


def _build_generated_field(
    options: dict[str, object], prefix: str, grid: GridSpec, zero_k3: bool, default_seed: int
) -> SpectralField | None:
    opt = {name: options[f"{prefix}.{name}"] for name in _GENERATOR_KEYS}
    kind = _default(opt["kind"], "none" if prefix == "forcing" else "random_band")
    seed = _default(opt["seed"], default_seed)
    if kind == "none":
        return None
    if kind == "single_mode":
        k = _required(options, f"{prefix}.k", " for single_mode")
        if len(k) != grid.dimension:
            raise ConfigError(f"{prefix}.k: expected {grid.dimension} integers")
        f = single_mode_field(grid, k, opt["amplitude"])
    elif kind == "random_band":
        kmin = opt["kmin"]
        kmax = _default(opt["kmax"], max(2.0, grid.modes_per_axis / 6.0))
        if kmax < kmin:
            raise ConfigError(f"{prefix}.kmax ({kmax:g}) must be at least {prefix}.kmin ({kmin:g})")
        f = random_band_field(grid, kmin, kmax, opt["amplitude"], seed, zero_k3_plane=zero_k3)
    elif kind == "analytic_decay":
        f = analytic_decay_field(grid, opt["tau0"], opt["amplitude"], seed, zero_k3_plane=zero_k3)
    elif kind == "modes":
        spec = _required(options, f"{prefix}.modes", " for the modes generator")
        f = SpectralField.from_modes(grid, _parse_mode_list(spec, grid.dimension))
    else:  # from_checkpoint
        path = _required(options, f"{prefix}.path", " for from_checkpoint")
        state, meta = load_checkpoint(path)
        if state.theta.grid != grid:
            raise ConfigError(
                f"{prefix}.path: checkpoint grid {state.theta.grid} does not match {grid}"
            )
        f = state.theta
    if zero_k3:
        k3 = grid.wavenumbers[-1]
        plane = np.broadcast_to(k3 == 0, grid.shape)
        if float(np.max(np.abs(f.coeffs[plane]), initial=0.0)) > 0.0:
            raise ConfigError(
                f"{prefix}: mg runs require zero vertical mean (no energy on k3=0)"
            )
    return f


@dataclass
class ParsedRun:
    """Everything needed to execute a configured run."""

    grid: GridSpec
    config: SolverConfig
    theta0: SpectralField
    forcing: SpectralField
    raw: dict[str, str]  # the file's key = value text, echoed by the manifest
    options: dict[str, object]  # every schema key, typed: the given value or the default
    table: SymbolTable | None = None  # the loaded custom table, tabulated once


def parse_config(text: str, default_seed: int = 0) -> ParsedRun:
    """Parse and validate a run configuration document.

    Every given key is parsed and range-checked against ``CONFIG_KEYS``,
    whatever the command.  Rejects unknown keys, out-of-range values,
    mean-violating forcing, and the ill-posed regime (singular mg drift
    with kappa = 0 and non-analytic initial data), each with a distinct
    message.
    """
    kv = _parse_kv(text)
    options = _read_options(kv)

    kind = _required(options, "drift.kind")
    nu = options["drift.nu"]
    dimension = _default(options["grid.dimension"], {"mg": 3, "sqg": 2}.get(kind))
    if dimension is None:
        raise ConfigError("grid.dimension is required for custom drifts")
    modes = _default(options["grid.modes"], 64 if dimension == 2 else 24)
    try:
        grid = GridSpec(dimension=dimension, modes_per_axis=modes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if kind == "custom":
        path = _required(options, "drift.table", " for custom drifts")
        table = load_custom_symbol_file(path, dimension, grid, strict=options["drift.strict"])
        drift = table.spec
    else:
        table = None
        drift = MultiplierSpec(kind=kind, nu=nu)
        if drift.dimension != dimension:
            raise ConfigError(
                f"{kind} drift is {drift.dimension}-d but grid.dimension = {dimension}"
            )

    kappa = _required(options, "solver.kappa")
    try:
        config = SolverConfig(
            kappa=kappa,
            gamma=_default(options["solver.gamma"], 1.0 if kind == "sqg" else 2.0),
            drift=drift,
            t_end=_required(options, "solver.t_end"),
            dt=options["solver.dt"],
            cfl_safety=options["solver.cfl_safety"],
            integrator=options["solver.integrator"],
            dealias=options["solver.dealias"],
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    zero_k3 = kind == "mg"
    if (
        kind == "mg"
        and nu == 0.0
        and kappa == 0.0
        and _default(options["init.kind"], "random_band") not in _ANALYTIC_GENERATORS
    ):
        raise ConfigError(
            "ill-posed regime rejected: singular mg drift (nu=0) with kappa=0 "
            "requires analytic initial data (single_mode, analytic_decay or modes)"
        )

    theta0 = _build_generated_field(options, "init", grid, zero_k3, default_seed)
    if theta0 is None:
        raise ConfigError("init.kind: 'none' is not a valid initial condition")
    forcing = _build_generated_field(options, "forcing", grid, zero_k3, default_seed + 1)
    if forcing is None:
        forcing = SpectralField.zeros(grid)

    return ParsedRun(
        grid=grid,
        config=config,
        theta0=theta0,
        forcing=forcing,
        raw=kv,
        options=options,
        table=table,
    )


# ---------------------------------------------------------------------------
# Checkpoints


@lru_cache(maxsize=8)
def _independent_wavevectors(grid: GridSpec) -> np.ndarray:
    """Retained independent wavevectors in lexicographic order, shape (count, d).

    One representative per conjugate pair: the lexicographically positive
    member (first nonzero component positive) of each k with components in
    [-(N/2-1), N/2-1], excluding 0.  Read-only; shared by every checkpoint
    of the grid.
    """
    half = grid.modes_per_axis // 2
    axis = np.arange(-(half - 1), half)
    lattice = np.meshgrid(*([axis] * grid.dimension), indexing="ij")
    ks = np.stack([k.ravel() for k in lattice], axis=1)  # rows in lexicographic order
    first_nonzero = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)]
    out = ks[first_nonzero > 0]
    out.flags.writeable = False
    return out


def _independent_modes(grid: GridSpec) -> list[tuple[int, ...]]:
    """The checkpoint's mode order as wavevector tuples."""
    return [tuple(k) for k in _independent_wavevectors(grid).tolist()]


def _fft_index(grid: GridSpec, ks: np.ndarray) -> tuple[np.ndarray, ...]:
    return tuple(ks.T % grid.modes_per_axis)


def expected_coefficient_count(grid: GridSpec) -> int:
    m = grid.modes_per_axis - 1
    return (m**grid.dimension - 1) // 2


_HEADER = struct.Struct("<5sII d d d I d Q")  # magic d N t kappa gamma kind nu count


def save_checkpoint(state: SimulationState, config: SolverConfig, path) -> None:
    """Write the bit-exact "ASCL1" snapshot of a simulation state."""
    grid = state.theta.grid
    modes = _independent_wavevectors(grid)
    kind_code = _DRIFT_CODES[config.drift.kind]
    header = _HEADER.pack(
        MAGIC,
        grid.dimension,
        grid.modes_per_axis,
        state.t,
        config.kappa,
        config.gamma,
        kind_code,
        getattr(config.drift, "nu", 0.0),
        len(modes),
    )
    payload = np.ascontiguousarray(state.theta.coeffs[_fft_index(grid, modes)], dtype="<c16")
    _atomic_write_bytes(path, header + payload.tobytes())


@dataclass(frozen=True)
class CheckpointMeta:
    t: float
    kappa: float
    gamma: float
    drift_kind: str
    nu: float


def load_checkpoint(path) -> tuple[SimulationState, CheckpointMeta]:
    """Read an "ASCL1" snapshot back into a simulation state."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    if len(data) < _HEADER.size:
        raise CheckpointError(
            f"truncated checkpoint: {len(data)} bytes, header needs {_HEADER.size}"
        )
    magic, d, n, t, kappa, gamma, kind_code, nu, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        if magic[:4] == MAGIC[:4]:
            raise CheckpointError(f"checkpoint version mismatch: {magic!r}")
        raise CheckpointError(f"bad magic {magic!r}")
    try:
        grid = GridSpec(dimension=d, modes_per_axis=n)
    except ValueError as exc:
        raise CheckpointError(f"invalid header geometry: {exc}") from exc
    expected = expected_coefficient_count(grid)
    if count == 0:
        raise CheckpointError("degenerate checkpoint: zero retained modes declared")
    if count != expected:
        raise CheckpointError(
            f"coefficient count {count} does not match the {expected} retained "
            f"independent modes of a {d}-d N={n} grid"
        )
    body = data[_HEADER.size:]
    need = 16 * count
    if len(body) != need:
        raise CheckpointError(
            f"truncated checkpoint payload: expected {need} bytes, found {len(body)}"
        )
    values = np.frombuffer(body, dtype="<c16")
    modes = _independent_wavevectors(grid)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[_fft_index(grid, modes)] = values
    coeffs[_fft_index(grid, -modes)] = np.conj(values)
    state = SimulationState(t=t, theta=SpectralField._wrap(grid, coeffs), step_count=0)
    kind = _DRIFT_NAMES.get(kind_code)
    if kind is None:
        raise CheckpointError(f"unknown drift code {kind_code}")
    return state, CheckpointMeta(t=t, kappa=kappa, gamma=gamma, drift_kind=kind, nu=nu)


# ---------------------------------------------------------------------------
# CSV + manifests


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with a header line and floats at 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_manifest(path, parsed: ParsedRun, extra: dict | None = None) -> None:
    manifest = {
        "version": __version__,
        "config": dict(sorted(parsed.raw.items())),
        "inputs": {
            "theta0_sha256": field_digest(parsed.theta0),
            "forcing_sha256": field_digest(parsed.forcing),
        },
        "wall_clock": {
            "written_at_unix": time.time(),
        },
    }
    if extra:
        manifest["extra"] = extra
    _atomic_write_bytes(path, json.dumps(manifest, indent=2).encode("utf-8"))


# ---------------------------------------------------------------------------
# Subcommands


def _diag_rows(records: list[DiagnosticRecord], hs: Sequence[float]):
    header = ["t", "l2"] + [f"h{s:g}" for s in hs] + ["linf", "dissipation_rate"]
    rows = []
    for rec in records:
        row = [rec.t, rec.l2] + [rec.hs[s] for s in hs] + [rec.linf, rec.dissipation_rate]
        rows.append(row)
    return header, rows


def _cmd_run(parsed: ParsedRun, out: Path, args) -> int:
    hs = parsed.options["diag.hs"]
    records: list[DiagnosticRecord] = []

    def observer(state: SimulationState) -> None:
        records.append(record(state, parsed.config, hs=hs))
        if args.checkpoint_every and state.step_count > 0 and (
            state.step_count % args.checkpoint_every == 0
        ):
            save_checkpoint(state, parsed.config, out / f"checkpoint_{state.step_count:08d}.ckpt")

    final = run(
        parsed.config,
        parsed.theta0,
        parsed.forcing,
        table=parsed.table,
        observers=(observer,),
        observe_every=parsed.options["diag.observe_every"],
    )
    header, rows = _diag_rows(records, hs)
    write_csv(out / "diagnostics.csv", header, rows)
    save_checkpoint(final, parsed.config, out / "final.ckpt")
    write_manifest(out / "manifest.json", parsed, extra={"final_t": final.t})
    return 0


def _cmd_audit(parsed: ParsedRun, out: Path, args) -> int:
    spec = parsed.config.drift
    probes = parsed.options["sweep.nus"] or [getattr(spec, "nu", 0.0)]
    report = verify_assumptions(spec, parsed.grid, probes if spec.kind == "mg" else None)
    rows = [
        ("div_max", report.div_max),
        ("c0_hat", report.c0_hat),
        ("lipschitz_hat", report.lipschitz_hat),
        ("kmax_used", float(report.kmax_used)),
    ]
    rows += [(f"c2_hat[nu={nu:g}]", val) for nu, val in sorted(report.c2_hat.items())]
    write_csv(out / "assumption_report.csv", ["quantity", "value"], rows)
    write_manifest(out / "manifest.json", parsed, extra={"flags": report.flags})
    if report.flags:
        print("audit flags:", "; ".join(report.flags), file=sys.stderr)
        return 3
    return 0


def _cmd_sweep_kappa(parsed: ParsedRun, out: Path, args) -> int:
    base = parsed.config
    if base.dt is None:
        base = replace(base, dt=DEFAULT_SWEEP_DT)
    try:
        plan = SweepPlan(
            base=base,
            parameter="kappa",
            values=_required(parsed.options, "sweep.kappas"),
            theta0=parsed.theta0,
            forcing=parsed.forcing,
            norms=tuple(_NORMS[label] for label in parsed.options["sweep.norms"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = kappa_sweep(plan, max_workers=args.threads, table=parsed.table)
    write_csv(
        out / "sweep_kappa.csv",
        ["param", "t", "norm_name", "value"],
        result.rows(),
    )
    write_manifest(
        out / "manifest.json",
        parsed,
        extra={"fitted_order": result.fitted_order, "monotone": result.monotone},
    )
    return 0


def _cmd_sweep_nu(parsed: ParsedRun, out: Path, args) -> int:
    opts = parsed.options
    transient, cadence, count = opts["sweep.transient"], opts["sweep.cadence"], opts["sweep.count"]
    base = parsed.config
    if base.drift.kind != "mg":
        raise ConfigError("sweep-nu requires the mg drift family")
    if base.kappa <= 0:
        raise ConfigError(f"sweep-nu requires solver.kappa > 0, got {base.kappa:g}")
    try:
        plan = SweepPlan(
            base=base if base.dt is not None else replace(base, dt=DEFAULT_SWEEP_DT),
            parameter="nu",
            values=_required(opts, "sweep.nus"),
            theta0=parsed.theta0,
            forcing=parsed.forcing,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    reference = attractor_sample(
        plan.member_config(0.0), [parsed.theta0], parsed.forcing, transient, cadence, count
    )
    result = nu_sweep_attractor(
        plan, reference, transient, cadence, count, max_workers=args.threads
    )
    write_csv(
        out / "sweep_nu.csv",
        ["param", "t", "norm_name", "value"],
        [(nu, transient + cadence * count, f"semidistance_{result.norm}", val)
         for nu, val in result.rows],
    )
    write_manifest(out / "manifest.json", parsed, extra={"spearman": result.spearman})
    return 0


def _cmd_lyapunov(parsed: ParsedRun, out: Path, args) -> int:
    opts = parsed.options
    n = opts["lyapunov.n"]
    interval, total = opts["lyapunov.renorm_interval"], opts["lyapunov.total_time"]
    if total < 2 * interval:
        raise ConfigError(
            f"lyapunov.total_time ({total:g}) must be at least twice "
            f"lyapunov.renorm_interval ({interval:g})"
        )
    result = lyapunov_run(
        parsed.config,
        parsed.theta0,
        parsed.forcing,
        n=n,
        renorm_interval=interval,
        total_time=total,
        table=parsed.table,
        seed=args.seed,
        inner_product=opts["lyapunov.inner"],
    )
    sums = result.cumulative_sums
    write_csv(
        out / "lyapunov.csv",
        ["index", "exponent", "cumulative_sum"],
        [(i + 1, result.exponents[i], sums[i]) for i in range(n)],
    )
    write_manifest(
        out / "manifest.json",
        parsed,
        extra={
            "n_star": result.n_star,
            "ky_dimension": result.ky_dimension,
            "total_time": result.total_time,
        },
    )
    return 0


def _cmd_gevrey_track(parsed: ParsedRun, out: Path, args) -> int:
    frac = parsed.options["gevrey.tau_fraction"]
    tau0 = analyticity_radius_estimate(parsed.theta0).tau_hat
    rows = gevrey_radius_track(
        parsed.config,
        parsed.theta0,
        parsed.forcing,
        r=parsed.options["gevrey.r"],
        s=parsed.options["gevrey.s"],
        tau_schedule=lambda t: frac * tau0,
        table=parsed.table,
    )
    write_csv(out / "gevrey_track.csv", ["t", "tau_hat", "gevrey_norm"], rows)
    write_manifest(out / "manifest.json", parsed, extra={"tau0_hat": tau0})
    return 0


DEFAULT_SWEEP_DT = 0.02

_COMMANDS = {
    "run": _cmd_run,
    "audit-symbols": _cmd_audit,
    "sweep-kappa": _cmd_sweep_kappa,
    "sweep-nu": _cmd_sweep_nu,
    "lyapunov": _cmd_lyapunov,
    "gevrey-track": _cmd_gevrey_track,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascl",
        description="Pseudospectral active scalar simulation laboratory",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to a key=value configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    parser.add_argument("--seed", type=int, default=0, help="default generator seed")
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="STEPS",
        help="write a checkpoint every STEPS accepted steps",
    )
    return parser


def _keep_scratch_on_heap() -> None:
    """Serve the per-step scratch arrays from glibc's heap, not from mmap.

    glibc mmaps each block above its mmap threshold and unmaps it on free,
    so a step's short-lived 0.1-8 MB arrays would fault their pages in anew
    on every use.  A fixed 16 MiB threshold (the largest scratch array of a
    96^3 oversampled ``linf_norm`` half spectrum is 7.2 MB) and a 32 MiB trim
    threshold keep freed blocks in the heap for the next step; nothing is
    held by the package.  Does nothing off glibc, ignores failure, and may
    be repeated.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
    except (AttributeError, OSError, ValueError):
        pass


def main(argv: Sequence[str] | None = None) -> int:
    _keep_scratch_on_heap()
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        parsed = parse_config(text, default_seed=args.seed)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](parsed, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 2
    except SweepAbortedError as exc:
        if isinstance(exc.cause, BlowUpError):
            print(f"blow-up during sweep: {exc.cause}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ActiveScalarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
