"""Fourier multiplier constitutive laws relating the drift u to the scalar.

Two built-in laws are provided:

* the three-dimensional magnetogeostrophic family, a real even symbol
  depending on a viscosity parameter nu >= 0, smoothing of order 2 for
  nu > 0 and singular of order 1 at nu = 0, with the convention that the
  symbol vanishes identically on the plane k3 = 0 and at k = 0;
* the two-dimensional perpendicular Riesz law i(-k2, k1)/|k| (unit modulus).

Custom symbols can be supplied as callables or loaded from a plain-text
table.  ``verify_assumptions`` certifies the structural assumptions
numerically on the lattice: exact divergence-freeness, zero mean, conjugate
symmetry, order-2 decay per nu, the uniform order-1 bound over nu in [0, 1],
and the nu-Lipschitz estimate |k|^2 |dM/dnu| <= C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractViolationError, GridMismatchError
from .grid import GridSpec, SpectralField, VectorField, _cleaned, _project_half

__all__ = [
    "MultiplierSpec",
    "SymbolTable",
    "AssumptionReport",
    "mg_symbol",
    "sqg_symbol",
    "build_symbol_table",
    "apply_drift",
    "verify_assumptions",
    "symbol_lipschitz_estimate",
    "load_custom_symbol_file",
]

DIV_AUDIT_RTOL = 1e-12


@dataclass(frozen=True)
class MultiplierSpec:
    """Choice of constitutive law.

    kind is one of "mg" (d=3, parameter nu >= 0), "sqg" (d=2), or "custom"
    (arbitrary dimension with a user symbol function k -> complex d-vector).
    """

    kind: str
    nu: float = 0.0
    dimension: int = 0
    symbol_fn: Callable[[tuple[int, ...]], np.ndarray] | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind == "mg":
            if self.nu < 0:
                raise ValueError("mg requires nu >= 0")
            object.__setattr__(self, "dimension", 3)
        elif self.kind == "sqg":
            object.__setattr__(self, "dimension", 2)
        elif self.kind == "custom":
            if self.symbol_fn is None:
                raise ValueError("custom law needs a symbol function")
            if self.dimension not in (2, 3):
                raise ValueError("custom law needs dimension 2 or 3")
        else:
            raise ValueError(f"unknown multiplier kind {self.kind!r}")

    @property
    def bounded_symbol(self) -> bool | None:
        """Whether sup_k |M(k)| is bounded; None means unknown (custom)."""
        if self.kind == "sqg":
            return True
        if self.kind == "mg":
            return self.nu > 0
        return None

    def with_nu(self, nu: float) -> "MultiplierSpec":
        if self.kind != "mg":
            raise ValueError("only the mg family is parameterized by nu")
        return MultiplierSpec(kind="mg", nu=nu)


def mg_symbol(k: tuple[int, ...], nu: float) -> np.ndarray:
    """Magnetogeostrophic drift symbol at a single integer wavevector.

    Returns the real 3-vector (as complex dtype)

        M1 = [ k2 k3 |k|^2 - k1 k3 (k2^2 + nu |k|^4) ] / D
        M2 = [-k1 k3 |k|^2 - k2 k3 (k2^2 + nu |k|^4) ] / D
        M3 = [ (k1^2 + k2^2) (k2^2 + nu |k|^4)       ] / D
        D  = |k|^2 k3^2 + (k2^2 + nu |k|^4)^2

    and the zero vector on the plane k3 = 0 (including k = 0), where the
    symbol is undefined and is taken to vanish by convention.
    """
    k1, k2, k3 = (float(v) for v in k)
    if k3 == 0.0:
        return np.zeros(3, dtype=np.complex128)
    s2 = k1 * k1 + k2 * k2 + k3 * k3
    p = k2 * k2 + nu * s2 * s2
    d = s2 * k3 * k3 + p * p
    m1 = (k2 * k3 * s2 - k1 * k3 * p) / d
    m2 = (-k1 * k3 * s2 - k2 * k3 * p) / d
    m3 = ((k1 * k1 + k2 * k2) * p) / d
    return np.array([m1, m2, m3], dtype=np.complex128)


def sqg_symbol(k: tuple[int, ...]) -> np.ndarray:
    """Perpendicular Riesz symbol i(-k2, k1)/|k|; zero vector at k = 0."""
    k1, k2 = (float(v) for v in k)
    norm = np.hypot(k1, k2)
    if norm == 0.0:
        return np.zeros(2, dtype=np.complex128)
    return np.array([-1j * k2 / norm, 1j * k1 / norm], dtype=np.complex128)


@dataclass(frozen=True)
class SymbolTable:
    """Precomputed multiplier values M(k) on a grid's retained lattice.

    values has shape (d, N, ..., N).  Immutable after build; safe to share
    across threads.  Construction takes the divergence certificate once:
    ``divergence_max`` is the largest A1 audit ratio of the table, and
    ``require_divergence_free`` is what the solver checks before it runs
    its unchecked advection kernel with this table.
    """

    grid: GridSpec
    values: np.ndarray
    spec: MultiplierSpec
    divergence_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = (self.grid.dimension,) + self.grid.shape
        if self.values.shape != expected:
            raise GridMismatchError(
                f"symbol values shape {self.values.shape}, expected {expected}"
            )
        self.values.flags.writeable = False
        object.__setattr__(self, "divergence_max", float(np.max(self.divergence_ratio())))

    def require_divergence_free(self) -> None:
        """Raise ContractViolationError unless the table passes the A1 audit."""
        if self.divergence_max > DIV_AUDIT_RTOL:
            raise ContractViolationError(
                f"symbol table {self.spec.label or self.spec.kind!r} is not "
                f"divergence-free: A1 ratio {self.divergence_max:.3e}"
            )

    @cached_property
    def half_values(self) -> np.ndarray:
        """Half-spectrum values of the Hermitian part (M(k) + conj M(-k))/2.

        For a real theta the real drift of M is that of its Hermitian part;
        the built-in laws are Hermitian already and pass through unchanged.
        """
        return self.grid.half(np.stack([_cleaned(self.grid, v) for v in self.values]))

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean |M(k)|."""
        return np.sqrt(np.sum(np.abs(self.values) ** 2, axis=0))

    def divergence_ratio(self) -> np.ndarray:
        """Pointwise |k . M(k)| / max(1, |M(k)|) (the A1 audit quantity)."""
        div = np.zeros(self.grid.shape, dtype=np.complex128)
        for j, k in enumerate(self.grid.wavenumbers):
            div += k * self.values[j]
        return np.abs(div) / np.maximum(1.0, self.magnitude())


def _mg_table_values(grid: GridSpec, nu: float) -> np.ndarray:
    k1, k2, k3 = (k.astype(np.float64) for k in grid.wavenumbers)
    s2 = k1**2 + k2**2 + k3**2
    p = k2**2 + nu * s2**2
    d = s2 * k3**2 + p**2
    safe = np.where(d > 0, d, 1.0)
    m1 = (k2 * k3 * s2 - k1 * k3 * p) / safe
    m2 = (-k1 * k3 * s2 - k2 * k3 * p) / safe
    m3 = ((k1**2 + k2**2) * p) / safe
    vals = np.stack(np.broadcast_arrays(m1, m2, m3)).astype(np.complex128)
    vals[:, np.broadcast_to(k3 == 0, grid.shape)] = 0.0
    return vals


def _sqg_table_values(grid: GridSpec) -> np.ndarray:
    k1, k2 = (k.astype(np.float64) for k in grid.wavenumbers)
    norm = np.sqrt(k1**2 + k2**2)
    safe = np.where(norm > 0, norm, 1.0)
    m1 = -1j * k2 / safe
    m2 = 1j * k1 / safe
    vals = np.stack(np.broadcast_arrays(m1, m2)).astype(np.complex128)
    vals[:, norm == 0] = 0.0
    return vals


class _ListedSymbol:
    """Symbol of a loaded table: the listed value at k, zero elsewhere."""

    def __init__(self, entries: dict[tuple[int, ...], np.ndarray], dimension: int):
        self.entries = entries
        self.dimension = dimension

    def __call__(self, k: tuple[int, ...]) -> np.ndarray:
        return self.entries.get(k, np.zeros(self.dimension, dtype=np.complex128))

    def tabulate(self, grid: GridSpec) -> np.ndarray:
        """Scatter the entries on the grid's lattice into a (d, N, ..., N) array."""
        vals = np.zeros((grid.dimension,) + grid.shape, dtype=np.complex128)
        half = grid.modes_per_axis // 2
        kept = [(k, v) for k, v in self.entries.items() if all(-half <= c < half for c in k)]
        if kept:
            ks, vs = zip(*kept)
            vals[(slice(None),) + tuple(np.array(ks).T % grid.modes_per_axis)] = np.array(vs).T
        return vals


def build_symbol_table(spec: MultiplierSpec, grid: GridSpec) -> SymbolTable:
    """Tabulate the symbol on the retained lattice (Nyquist rows zeroed)."""
    if spec.dimension != grid.dimension:
        raise GridMismatchError(
            f"{spec.kind} law is {spec.dimension}-d but grid is {grid.dimension}-d"
        )
    if spec.kind == "mg":
        vals = _mg_table_values(grid, spec.nu)
    elif spec.kind == "sqg":
        vals = _sqg_table_values(grid)
    elif isinstance(spec.symbol_fn, _ListedSymbol):
        vals = spec.symbol_fn.tabulate(grid)
    else:
        vals = np.zeros((grid.dimension,) + grid.shape, dtype=np.complex128)
        ks = [k.reshape(-1) for k in np.broadcast_arrays(*grid.wavenumbers)]
        for flat, kvec in enumerate(zip(*ks)):
            idx = np.unravel_index(flat, grid.shape)
            vals[(slice(None),) + idx] = spec.symbol_fn(tuple(int(v) for v in kvec))
    vals[:, grid.nyquist_mask] = 0.0
    vals[(slice(None),) + (0,) * grid.dimension] = 0.0
    return SymbolTable(grid=grid, values=np.ascontiguousarray(vals), spec=spec)


def apply_drift(table: SymbolTable, theta: SpectralField) -> VectorField:
    """u_j with coefficients M_j(k) theta_hat(k); divergence-free and real."""
    if table.grid != theta.grid:
        raise GridMismatchError("symbol table and field grids differ")
    grid = theta.grid
    coeffs = _project_half(grid, table.half_values * theta.half)
    return VectorField(tuple(SpectralField._of_half(grid, c) for c in coeffs))


@dataclass
class AssumptionReport:
    """Numerical certification of the structural symbol assumptions."""

    div_max: float
    c2_hat: dict[float, float]
    c0_hat: float
    lipschitz_hat: float
    kmax_used: int
    flags: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.flags


def _conjugate_symmetry_error(table: SymbolTable) -> float:
    from .grid import _reflect

    err = 0.0
    for j in range(table.grid.dimension):
        v = table.values[j]
        err = max(err, float(np.max(np.abs(v - np.conj(_reflect(v))))))
    return err


def verify_assumptions(
    spec: MultiplierSpec, grid: GridSpec, nu_probe: list[float] | None = None
) -> AssumptionReport:
    """Audit divergence-freeness, zero mean, symmetry and order estimates.

    Violations are recorded in ``flags``; nothing is raised.  For the mg
    family the probe list sweeps nu; other laws ignore it (a single table
    is audited).  The L^inf -> BMO boundedness assumption has no
    finite-lattice certificate and is taken on trust, not checked here.
    """
    if spec.kind == "mg":
        if not nu_probe:
            raise ValueError("mg audit needs a non-empty nu probe list")
        if any(nu < 0 for nu in nu_probe):
            raise ValueError("nu probes must be >= 0")
        tables = [(nu, build_symbol_table(spec.with_nu(nu), grid)) for nu in nu_probe]
    else:
        tables = [(spec.nu, build_symbol_table(spec, grid))]
    return _assumption_report(spec, grid, tables)


def _assumption_report(
    spec: MultiplierSpec, grid: GridSpec, tables: list[tuple[float, SymbolTable]]
) -> AssumptionReport:
    """``verify_assumptions`` over already tabulated (nu, table) pairs."""
    div_max = 0.0
    c2_hat: dict[float, float] = {}
    c0_hat = 0.0
    flags: list[str] = []
    k_abs = grid.k_abs
    origin = (0,) * grid.dimension
    for nu, table in tables:
        ratio = table.divergence_max
        div_max = max(div_max, ratio)
        if ratio > DIV_AUDIT_RTOL:
            flags.append(f"A1: divergence ratio {ratio:.3e} at nu={nu}")
        mag = table.magnitude()
        if mag[origin] != 0.0:
            flags.append(f"A4: nonzero symbol at k=0 for nu={nu}")
        if spec.kind == "mg":
            k3 = grid.wavenumbers[-1]
            plane = np.broadcast_to(k3 == 0, grid.shape)
            if float(np.max(mag[plane])) != 0.0:
                flags.append(f"A4: nonzero symbol on k3=0 plane for nu={nu}")
        sym_err = _conjugate_symmetry_error(table)
        if sym_err > 1e-12 * max(1.0, float(np.max(mag))):
            flags.append(f"conjugate symmetry error {sym_err:.3e} at nu={nu}")
        c2_hat[nu] = float(np.max(grid.k_squared * mag))
        if nu <= 1.0:
            with np.errstate(invalid="ignore", divide="ignore"):
                order1 = np.where(k_abs > 0, mag / np.where(k_abs > 0, k_abs, 1.0), 0.0)
            c0_hat = max(c0_hat, float(np.max(order1)))

    lipschitz_hat = 0.0
    positive = sorted(nu for nu, _ in tables if nu > 0)
    for lo, hi in zip(positive, positive[1:]):
        lipschitz_hat = max(
            lipschitz_hat,
            symbol_lipschitz_estimate(
                lambda nu: spec.with_nu(nu), grid, lo, hi, nu_range=(lo, hi)
            ),
        )

    kmax_used = grid.modes_per_axis // 2 - 1
    return AssumptionReport(
        div_max=div_max,
        c2_hat=c2_hat,
        c0_hat=c0_hat,
        lipschitz_hat=lipschitz_hat,
        kmax_used=kmax_used,
        flags=flags,
    )


def symbol_lipschitz_estimate(
    spec_family: Callable[[float], MultiplierSpec],
    grid: GridSpec,
    nu1: float,
    nu2: float,
    nu_range: tuple[float, float],
) -> float:
    """Lattice estimate of sup_k |k|^2 max_j |M^{nu1}_j - M^{nu2}_j| / |nu1 - nu2|.

    Both nu values must lie in the compact window nu_range, bounded away
    from zero; the estimate stabilizes under grid refinement there.
    """
    lo, hi = nu_range
    if not 0 < lo <= hi:
        raise ValueError("nu_range must satisfy 0 < lo <= hi")
    for nu in (nu1, nu2):
        if not lo <= nu <= hi:
            raise ValueError(f"nu={nu} outside window [{lo}, {hi}]")
    if nu1 == nu2:
        raise ValueError("nu1 and nu2 must differ")
    t1 = build_symbol_table(spec_family(nu1), grid)
    t2 = build_symbol_table(spec_family(nu2), grid)
    diff = np.max(np.abs(t1.values - t2.values), axis=0)
    return float(np.max(grid.k_squared * diff)) / abs(nu1 - nu2)


def estimated_symbol_order(table: SymbolTable) -> float:
    """Least-squares slope of log(shell max |M|) vs log|k|.

    Used to classify custom symbols: slope <= ~0 means a bounded symbol,
    positive slope means a singular (unbounded) law.
    """
    mag = table.magnitude()
    shells = table.grid.shell_index
    # only shells fully contained in the lattice; corner shells bias the fit
    top = table.grid.modes_per_axis // 2 - 1
    xs, ys = [], []
    for n in range(1, top + 1):
        m = float(np.max(mag[(shells == n) & table.grid.mode_mask], initial=0.0))
        if m > 0.0:
            xs.append(np.log(float(n)))
            ys.append(np.log(m))
    if len(xs) < 2:
        return 0.0
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(slope)


def symbol_is_bounded(spec: MultiplierSpec, grid: GridSpec) -> bool:
    """Bounded-symbol classification; lattice heuristic for custom laws."""
    return table_is_bounded(build_symbol_table(spec, grid))


def table_is_bounded(table: SymbolTable) -> bool:
    """``symbol_is_bounded`` of an already tabulated law."""
    known = table.spec.bounded_symbol
    if known is not None:
        return known
    return estimated_symbol_order(table) <= 0.25


def load_custom_symbol_file(
    path, dimension: int, grid: GridSpec, strict: bool = True
) -> SymbolTable:
    """Read a custom symbol table from text.

    One line per wavevector: d integers k, then d pairs (re, im),
    whitespace-separated.  Unlisted wavevectors default to zero.  With
    strict=True the table must pass the structural audits; otherwise
    violations only raise a warning.  An unreadable file raises ConfigError,
    a malformed line ContractViolationError naming ``path:lineno``.
    """
    import warnings

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read custom symbol table: {exc}") from exc
    entries: dict[tuple[int, ...], np.ndarray] = {}
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != dimension + 2 * dimension:
            raise ContractViolationError(
                f"{path}:{lineno}: expected {3 * dimension} numbers, got {len(parts)}"
            )
        try:
            k = tuple(int(p) for p in parts[:dimension])
            vals = [float(p) for p in parts[dimension:]]
        except ValueError as exc:
            raise ContractViolationError(f"{path}:{lineno}: not a number: {body!r}") from exc
        entries[k] = np.array(
            [complex(vals[2 * j], vals[2 * j + 1]) for j in range(dimension)],
            dtype=np.complex128,
        )

    spec = MultiplierSpec(
        kind="custom", dimension=dimension, symbol_fn=_ListedSymbol(entries, dimension),
        label=str(path),
    )
    table = build_symbol_table(spec, grid)
    report = _assumption_report(spec, grid, [(spec.nu, table)])
    if report.flags:
        msg = f"custom symbol table {path} failed audits: {report.flags}"
        if strict:
            raise ContractViolationError(msg)
        warnings.warn(msg)
    return table
