"""Tangent propagation, Lyapunov exponents and volume-decay indices.

Tangent perturbations are extra rows of the one stack the solver steps:
``tangent_step`` advances [theta, psi_1, .., psi_n] with the same stepper
and stage right-hand side as ``step``, whose tangent rows are the
derivative DN(theta)[psi_i] at the base stage field.  Since both
integrators are stage-wise linear combinations with diagonal factors, each
tangent is the exact Frechet derivative of one solver step, and
finite-difference consistency tests the discrete dynamics, not just the
underlying ODE.

Exponents come from periodic modified Gram-Schmidt re-orthonormalization:
the log normalizers accumulate per direction and divide by elapsed time.
The default inner product is homogeneous H^1, matching the trace pairing
used for volume elements; L^2 is available for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateTangentError, InvalidFieldError
from .grid import GridSpec, SpectralField, _cleaned, _project_half
from .multipliers import SymbolTable, build_symbol_table
from .stepping import (
    SimulationState,
    SolverConfig,
    _advance,
    _auto_dt,
    _forcing_field,
    _make_nonlinear,
    step,
)

__all__ = [
    "TangentBundle",
    "LyapunovResult",
    "linearized_rhs",
    "tangent_step",
    "reorthonormalize",
    "lyapunov_run",
    "fd_consistency",
    "tangent_inner",
    "tangent_norm",
]

DEGENERATE_NORMALIZER = 1e-300
INNER_PRODUCTS = ("h1", "l2")


def _inner_weight(grid: GridSpec, kind: str) -> np.ndarray:
    if kind == "h1":
        return grid.k_squared
    if kind == "l2":
        return np.ones(grid.shape)
    raise ValueError(f"unknown inner product {kind!r}")


def tangent_inner(f: SpectralField, g: SpectralField, kind: str = "h1") -> float:
    w = _inner_weight(f.grid, kind)
    return float(np.real(np.sum(w * f.coeffs * np.conj(g.coeffs))))


def tangent_norm(f: SpectralField, kind: str = "h1") -> float:
    return float(np.sqrt(max(tangent_inner(f, f, kind), 0.0)))


@dataclass(frozen=True)
class TangentBundle:
    """Base trajectory state plus tangent perturbations."""

    base: SimulationState
    tangents: tuple[SpectralField, ...]
    inner_product: str = "h1"

    def __post_init__(self):
        if self.inner_product not in INNER_PRODUCTS:
            raise ValueError(f"inner product must be one of {INNER_PRODUCTS}")
        for psi in self.tangents:
            if psi.grid != self.base.theta.grid:
                raise ConfigError("tangent grid differs from base grid")


def linearized_rhs(
    theta: SpectralField,
    psi: SpectralField,
    config: SolverConfig,
    table: SymbolTable,
) -> SpectralField:
    """-kappa Lambda^gamma psi - u[theta].grad(psi) - u[psi].grad(theta).

    Exactly linear in psi; reduces to pure dissipation at theta = 0.
    """
    if theta.grid != psi.grid:
        raise ConfigError("linearized_rhs needs theta and psi on one grid")
    grid = theta.grid
    X = np.stack([theta.half, psi.half])
    dn = _make_nonlinear(config, grid, None, table)(X)[0][1]
    lam = -config.kappa * grid.half_k_abs**config.gamma
    return SpectralField._of_half(grid, _project_half(grid, lam * X[1] + dn))


def tangent_step(
    bundle: TangentBundle,
    config: SolverConfig,
    S,
    table: SymbolTable,
    h: float | None = None,
) -> TangentBundle:
    """One step of the stack [theta, psi_1, .., psi_n] with shared stage fields.

    The returned fields are rows of the projected result stack; their full
    lattices are built only if a caller reads them.
    """
    if h is None:
        h = config.dt
    if h is None or h <= 0:
        raise ConfigError("tangent_step needs a positive time step")
    grid = bundle.base.theta.grid
    rhs = _make_nonlinear(config, grid, S, table)
    X = np.stack([bundle.base.theta.half] + [p.half for p in bundle.tangents])
    new = _advance(X, rhs(X)[0], rhs, grid, config, h)
    if not np.all(np.isfinite(new.view(np.float64))):
        raise InvalidFieldError("non-finite Fourier coefficients")
    fields = [SpectralField._of_half(grid, row) for row in _project_half(grid, new)]
    base = SimulationState(
        t=bundle.base.t + h, theta=fields[0], step_count=bundle.base.step_count + 1
    )
    return TangentBundle(base=base, tangents=tuple(fields[1:]), inner_product=bundle.inner_product)


def reorthonormalize(bundle: TangentBundle) -> tuple[TangentBundle, np.ndarray]:
    """Modified Gram-Schmidt in the bundle's inner product.

    Returns the new bundle and the per-direction log normalizers; their sum
    is the log of the volume spanned by the tangents (Gram determinant
    square root).
    """
    if not bundle.tangents:
        raise ValueError("bundle has no tangents")
    grid = bundle.base.theta.grid
    w = _inner_weight(grid, bundle.inner_product)
    basis: list[tuple[np.ndarray, np.ndarray]] = []  # (q, w conj(q))
    logs = np.empty(len(bundle.tangents))
    for i, psi in enumerate(bundle.tangents):
        v = psi.coeffs.astype(np.complex128, copy=True)
        for q, wq in basis:
            v -= float(np.real(np.sum(wq * v))) * q
        norm = float(np.sqrt(max(np.real(np.sum(w * np.conj(v) * v)), 0.0)))
        if norm < DEGENERATE_NORMALIZER:
            raise DegenerateTangentError(
                f"tangent {i} is numerically dependent (normalizer {norm:.3e})"
            )
        q = v / norm
        basis.append((q, w * np.conj(q)))
        logs[i] = np.log(norm)
    tangents = tuple(SpectralField._wrap(grid, q) for q, _ in basis)
    return (
        TangentBundle(base=bundle.base, tangents=tangents, inner_product=bundle.inner_product),
        logs,
    )


@dataclass(frozen=True)
class LyapunovResult:
    """Exponents sorted descending plus the derived dimension estimates."""

    exponents: np.ndarray
    n_star: int | None
    ky_dimension: float
    renorm_interval: float
    total_time: float

    @property
    def cumulative_sums(self) -> np.ndarray:
        return np.cumsum(self.exponents)


def _kaplan_yorke(exponents: np.ndarray) -> float:
    if exponents[0] < 0:
        return 0.0
    sums = np.cumsum(exponents)
    nonneg = np.nonzero(sums >= 0)[0]
    j = int(nonneg[-1])  # largest index with nonnegative partial sum
    if j + 1 >= len(exponents):
        return float(len(exponents))
    return float(j + 1) + float(sums[j] / abs(exponents[j + 1]))


def _first_negative_partial_sum(exponents: np.ndarray) -> int | None:
    sums = np.cumsum(exponents)
    neg = np.nonzero(sums < 0)[0]
    if len(neg) == 0:
        return None
    return int(neg[0]) + 1


def random_tangent_set(
    grid: GridSpec, n: int, seed: int, inner_product: str = "h1"
) -> tuple[SpectralField, ...]:
    """Seeded random orthonormal tangent directions."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(n):
        raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        fields.append(SpectralField._wrap(grid, _cleaned(grid, raw)))
    dummy = SimulationState(t=0.0, theta=SpectralField.zeros(grid))
    bundle = TangentBundle(base=dummy, tangents=tuple(fields), inner_product=inner_product)
    bundle, _ = reorthonormalize(bundle)
    return bundle.tangents


def lyapunov_run(
    config: SolverConfig,
    theta0: SpectralField,
    S,
    n: int,
    renorm_interval: float = 0.5,
    total_time: float = 50.0,
    table: SymbolTable | None = None,
    seed: int = 0,
    inner_product: str = "h1",
    spinup_fraction: float = 0.1,
) -> LyapunovResult:
    """Estimate the n leading Lyapunov exponents of the flow around theta0.

    The base trajectory should already be post-transient.  The step size is
    config.dt, or the CFL-capped default when unset; the renormalization
    interval is rounded to a whole number of steps.  The first
    spinup_fraction of the horizon lets the tangents align with the leading
    subspace and is excluded from the averages.
    """
    if n < 1:
        raise ValueError("need at least one tangent direction")
    if total_time < 2 * renorm_interval:
        raise ValueError("total_time must cover several renormalization intervals")
    if not 0 <= spinup_fraction < 1:
        raise ValueError("spinup_fraction must lie in [0, 1)")
    grid = theta0.grid
    if table is None:
        table = build_symbol_table(config.drift, grid)
    S_field = _forcing_field(S, grid)
    dt = config.dt if config.dt is not None else _auto_dt(table, theta0, config.cfl_safety)
    steps_per_renorm = max(1, int(round(renorm_interval / dt)))
    interval = steps_per_renorm * dt
    n_intervals = max(1, int(round(total_time / interval)))
    n_spinup = int(round(spinup_fraction * n_intervals))
    if n_intervals - n_spinup < 1:
        n_spinup = n_intervals - 1

    bundle = TangentBundle(
        base=SimulationState(t=0.0, theta=theta0),
        tangents=random_tangent_set(grid, n, seed, inner_product),
        inner_product=inner_product,
    )
    log_sums = np.zeros(n)
    for block in range(n_intervals):
        for _ in range(steps_per_renorm):
            bundle = tangent_step(bundle, config, S_field, table, h=dt)
        bundle, logs = reorthonormalize(bundle)
        if block >= n_spinup:
            log_sums += logs
    elapsed = (n_intervals - n_spinup) * interval
    exponents = np.sort(log_sums / elapsed)[::-1]
    return LyapunovResult(
        exponents=exponents,
        n_star=_first_negative_partial_sum(exponents),
        ky_dimension=_kaplan_yorke(exponents),
        renorm_interval=interval,
        total_time=float(elapsed),
    )


def n_star_scaling_exponent(
    kappas: Sequence[float], n_stars: Sequence[int]
) -> float:
    """Fitted slope of log(n_star) against log(kappa) across a kappa grid.

    The dissipation/stretching balance suggests the volume-decay index
    grows no faster than kappa^(-d/gamma); this is a qualitative trend
    check only, never an asserted equality (the bound's constants are not
    available numerically).
    """
    ks = np.asarray(kappas, dtype=float)
    ns = np.asarray(n_stars, dtype=float)
    if len(ks) < 2 or np.any(ks <= 0) or np.any(ns <= 0):
        raise ValueError("need >= 2 positive kappa values with positive n_star")
    return float(np.polyfit(np.log(ks), np.log(ns), 1)[0])


def fd_consistency(
    theta0: SpectralField,
    psi0: SpectralField,
    eps: float,
    t: float,
    config: SolverConfig,
    S,
    table: SymbolTable | None = None,
) -> float:
    """H^1 distance between the finite-difference derivative of the flow
    and the propagated tangent:

        || (pi_t(theta0 + eps psi0) - pi_t(theta0)) / eps - Dpi_t[psi0] ||_H1

    psi0 is normalized to unit H^1 norm; the same fixed dt drives all three
    trajectories so the comparison probes the discrete flow map.  Contract:
    the error is O(eps).
    """
    if not 1e-8 < eps < 1e-2:
        raise ValueError("eps must lie in (1e-8, 1e-2)")
    if config.dt is None:
        raise ConfigError("fd_consistency requires a fixed dt in the config")
    if t < 0:
        raise ValueError("horizon must be >= 0")
    grid = theta0.grid
    if table is None:
        table = build_symbol_table(config.drift, grid)
    norm0 = tangent_norm(psi0, "h1")
    if norm0 == 0.0:
        raise ValueError("psi0 must be nonzero")
    psi0 = psi0 * (1.0 / norm0)
    if t == 0.0:
        return 0.0

    # One loop drives base, tangent and perturbed trajectory so all three
    # see bit-identical step sizes.
    bundle = TangentBundle(
        base=SimulationState(t=0.0, theta=theta0), tangents=(psi0,), inner_product="h1"
    )
    pert = SimulationState(t=0.0, theta=theta0 + eps * psi0)
    eps_t = 1e-12 * max(t, 1.0)
    while bundle.base.t < t - eps_t:
        h = min(config.dt, t - bundle.base.t)
        bundle = tangent_step(bundle, config, S, table, h=h)
        pert = step(pert, config, S, table, h=h)
    diff = (1.0 / eps) * (pert.theta - bundle.base.theta) - bundle.tangents[0]
    return tangent_norm(diff, "h1")
