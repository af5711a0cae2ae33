"""Tangent propagation, Lyapunov exponents and volume-decay indices.

Tangent perturbations evolve under the linearization of the *discrete*
flow map: every Runge-Kutta stage of a tangent reuses the base stage field
produced by the same integrator, so the tangent map is the exact Frechet
derivative of one solver step.  Finite-difference consistency therefore
tests the discrete dynamics, not just the underlying ODE.

Exponents come from periodic modified Gram-Schmidt re-orthonormalization:
the log normalizers accumulate per direction and divide by elapsed time.
The default inner product is homogeneous H^1, matching the trace pairing
used for volume elements; L^2 is available for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateTangentError, GridMismatchError
from .grid import (
    GridSpec,
    SpectralField,
    _cleaned,
    _dealias_selector,
    _flux_divergence,
    _from_half,
    _half_to_physical,
)
from .multipliers import SymbolTable, apply_drift, build_symbol_table
from .stepping import (
    DT_MAX,
    SimulationState,
    SolverConfig,
    _forcing_field,
    _linear_factors,
    _make_nonlinear,
    cfl_dt,
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
    if table.grid != grid:
        raise GridMismatchError("symbol table and field grids differ")
    lam = -config.kappa * grid.half_k_abs**config.gamma
    psi_c = grid.half(psi.coeffs)
    out = lam * psi_c + _tangent_rhs_factory(config, table)(grid.half(theta.coeffs), psi_c)
    return SpectralField._wrap(grid, _from_half(grid, out))


def _tangent_rhs_factory(config: SolverConfig, table: SymbolTable):
    """DN(theta)[psi] for N(theta) = S - u[theta].grad theta (S drops out).

    Acts on half spectra.  The two transport terms, both in divergence
    form, share one forward transform of the summed flux
    u[theta] psi + u[psi] theta: 2(d+1) inverse and d forward transforms.
    """
    table.require_divergence_free()
    grid = table.grid
    d = grid.dimension
    mask = _dealias_selector(grid, config.dealias)
    values = table.half_values
    shape = (2 * (d + 1),) + grid.half_shape  # theta, psi, u[theta], u[psi]

    def dn(theta_coeffs: np.ndarray, psi_coeffs: np.ndarray) -> np.ndarray:
        spec = np.empty(shape, dtype=np.complex128)
        np.multiply(theta_coeffs, mask, out=spec[0])
        np.multiply(psi_coeffs, mask, out=spec[1])
        np.multiply(values, spec[0], out=spec[2 : d + 2])
        np.multiply(values, spec[1], out=spec[d + 2 :])
        phys = _half_to_physical(grid, spec)
        flux = phys[2 : d + 2] * phys[1] + phys[d + 2 :] * phys[0]
        return -_flux_divergence(grid, flux, mask)

    return dn


def tangent_step(
    bundle: TangentBundle,
    config: SolverConfig,
    S,
    table: SymbolTable,
    h: float | None = None,
) -> TangentBundle:
    """One step of base and tangents with shared stage fields."""
    if h is None:
        h = config.dt
    if h is None or h <= 0:
        raise ConfigError("tangent_step needs a positive time step")
    grid = bundle.base.theta.grid
    rhs = _make_nonlinear(config, grid, S, table)
    dn = _tangent_rhs_factory(config, table)
    factors = _linear_factors(grid, config.kappa, config.gamma, h, config.integrator)

    def nl(theta_coeffs: np.ndarray) -> np.ndarray:
        return rhs(theta_coeffs)[0]

    c = grid.half(bundle.base.theta.coeffs)
    psis = [grid.half(p.coeffs) for p in bundle.tangents]

    if config.integrator == "etdrk2":
        e, hp1, hp2 = factors
        n0 = nl(c)
        mid = e * c + hp1 * n0
        new_c = mid + hp2 * (nl(mid) - n0)
        new_psis = []
        for pc in psis:
            l0 = dn(c, pc)
            pmid = e * pc + hp1 * l0
            new_psis.append(pmid + hp2 * (dn(mid, pmid) - l0))
    else:  # ifrk4
        e_half, e_full = factors
        k1 = nl(c)
        b2 = e_half * (c + 0.5 * h * k1)
        k2 = nl(b2)
        b3 = e_half * c + 0.5 * h * k2
        k3 = nl(b3)
        b4 = e_full * c + h * e_half * k3
        k4 = nl(b4)
        new_c = e_full * c + (h / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
        new_psis = []
        for pc in psis:
            l1 = dn(c, pc)
            p2s = e_half * (pc + 0.5 * h * l1)
            l2 = dn(b2, p2s)
            p3s = e_half * pc + 0.5 * h * l2
            l3 = dn(b3, p3s)
            p4s = e_full * pc + h * e_half * l3
            l4 = dn(b4, p4s)
            new_psis.append(
                e_full * pc + (h / 6.0) * (e_full * l1 + 2.0 * e_half * (l2 + l3) + l4)
            )

    base = SimulationState(
        t=bundle.base.t + h,
        theta=SpectralField._wrap(grid, _from_half(grid, new_c)),
        step_count=bundle.base.step_count + 1,
    )
    tangents = tuple(SpectralField._wrap(grid, _from_half(grid, pc)) for pc in new_psis)
    return TangentBundle(base=base, tangents=tangents, inner_product=bundle.inner_product)


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
    basis: list[np.ndarray] = []
    logs = np.empty(len(bundle.tangents))
    for i, psi in enumerate(bundle.tangents):
        v = psi.coeffs.astype(np.complex128, copy=True)
        for q in basis:
            v -= float(np.real(np.sum(w * np.conj(q) * v))) * q
        norm = float(np.sqrt(max(np.real(np.sum(w * np.conj(v) * v)), 0.0)))
        if norm < DEGENERATE_NORMALIZER:
            raise DegenerateTangentError(
                f"tangent {i} is numerically dependent (normalizer {norm:.3e})"
            )
        basis.append(v / norm)
        logs[i] = np.log(norm)
    tangents = tuple(SpectralField._wrap(grid, q.copy()) for q in basis)
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
    dt = config.dt
    if dt is None:
        u0 = apply_drift(table, theta0)
        dt = min(DT_MAX, cfl_dt(u0, grid, config.cfl_safety))
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
    bundle, _ = reorthonormalize(bundle)
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
