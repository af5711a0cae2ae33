"""Time integration with exact exponential treatment of the dissipation.

The linear part -kappa Lambda^gamma is diagonal in Fourier space and is
integrated exactly, so pure-diffusion trajectories carry zero time
discretization error.  The dealiased advection and the forcing are handled
explicitly by one of two schemes:

* etdrk2 -- second-order exponential time differencing (default),
* ifrk4  -- classical RK4 on the integrating-factor transform, used as the
  high-accuracy reference in convergence studies.

Auto time-step selection recomputes the advective CFL bound every 10 steps
and is capped at dt_max = 0.05 to control the explicit forcing integration
error.

The state and the stage right-hand sides live on rfftn half spectra (see
``grid``): ``step`` reads the state's half spectrum, runs the stages there
and returns a field holding the projected result, so a run builds full
lattices only for the states its observers read.  The blow-up monitor of
``run`` takes the H^1 norms on the half spectrum too.  A stage transforms
its masked fields and drifts in place of their scratch spectra and forms
the fluxes in the drift rows of the physical samples, so it allocates no
flux array and no |u| temporary.  The in-step CFL guard reads max |u| over
the first stage's physical drift, which equals the full drift whenever
theta has no energy outside the dealias band.  The diagonal linear
factors are cached per (grid, kappa, gamma, h, integrator) in a bounded
LRU cache.

The steppers act on a stack [theta, psi_1, .., psi_n] of half spectra:
``step`` advances the base row alone, ``tangent.tangent_step`` adds tangent
rows, whose stage right-hand side is the derivative of the base row's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BlowUpError,
    ConfigError,
    GridMismatchError,
    ObserverError,
    StabilityError,
)
from .grid import (
    DEALIAS_RULES,
    GridSpec,
    SpectralField,
    VectorField,
    _dealias_selector,
    _flux_divergence,
    _half_to_physical,
    _max_abs,
    _project_half,
)
from .multipliers import MultiplierSpec, SymbolTable, apply_drift, build_symbol_table, table_is_bounded

__all__ = [
    "SolverConfig",
    "SimulationState",
    "linear_propagator",
    "cfl_dt",
    "step",
    "run",
    "DT_MAX",
]

DT_MAX = 0.05
CFL_FLOOR = 1e-8
CFL_RECOMPUTE_EVERY = 10
CFL_VIOLATION_FACTOR = 10.0
BLOWUP_GROWTH_FACTOR = 1e6
# Distinct (grid, kappa, gamma, h, integrator) keys whose linear factors are
# kept; auto dt and the shortened last step each add keys, evicted in LRU order.
LINEAR_FACTOR_CACHE_SIZE = 8

INTEGRATORS = ("etdrk2", "ifrk4")


@dataclass(frozen=True)
class SolverConfig:
    """Immutable description of one run of the forced active scalar equation."""

    kappa: float
    gamma: float
    drift: MultiplierSpec
    t_end: float
    dt: float | None = None  # None selects automatic CFL-based steps
    cfl_safety: float = 0.5
    integrator: str = "etdrk2"
    dealias: str = "2/3"

    def __post_init__(self):
        if self.kappa < 0:
            raise ConfigError(f"kappa must be >= 0, got {self.kappa}")
        if not 0 < self.gamma <= 2:
            raise ConfigError(f"gamma must lie in (0, 2], got {self.gamma}")
        if self.t_end < 0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not 0 < self.cfl_safety <= 1:
            raise ConfigError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}"
            )
        if self.dealias not in DEALIAS_RULES:
            raise ConfigError(
                f"dealias must be one of {tuple(DEALIAS_RULES)}, got {self.dealias!r}"
            )


@dataclass(frozen=True)
class SimulationState:
    t: float
    theta: SpectralField
    step_count: int = 0


def _forcing_field(S: SpectralField | None, grid: GridSpec) -> SpectralField:
    if S is None:
        return SpectralField.zeros(grid)
    return S


def linear_propagator(grid: GridSpec, kappa: float, gamma: float, h: float) -> np.ndarray:
    """Diagonal factors exp(-kappa |k|^gamma h), all in (0, 1]."""
    if h <= 0:
        raise ValueError(f"propagator horizon must be positive, got {h}")
    if kappa == 0.0:
        return np.ones(grid.shape)
    return np.exp(-kappa * grid.k_abs**gamma * h)


def cfl_dt(u: VectorField, grid: GridSpec, cfl_safety: float = 0.5) -> float:
    """Advective step bound cfl_safety * dx / max(|u|_inf, floor).

    The d components are sampled on the N^d lattice in one stacked inverse.
    """
    phys = _half_to_physical(u.grid, np.stack([comp.half for comp in u.components]))
    return _cfl_bound(grid, _max_abs(phys), cfl_safety)


def _cfl_bound(grid: GridSpec, umax: float, cfl_safety: float) -> float:
    return cfl_safety * grid.dx / max(umax, CFL_FLOOR)


def _auto_dt(table: SymbolTable, theta: SpectralField, cfl_safety: float) -> float:
    """Automatic step size: the CFL bound of theta's drift, capped at DT_MAX."""
    return min(DT_MAX, cfl_dt(apply_drift(table, theta), theta.grid, cfl_safety))


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with the z -> 0 limit."""
    out = np.ones_like(z)
    nz = z != 0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - z - 1)/z^2, series-expanded near 0 to dodge cancellation."""
    out = np.full_like(z, 0.5)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 0.5 + zs / 6.0 + zs**2 / 24.0
    big = ~small
    zb = z[big]
    out[big] = (np.expm1(zb) - zb) / zb**2
    return out


@lru_cache(maxsize=LINEAR_FACTOR_CACHE_SIZE)
def _linear_factors(
    grid: GridSpec, kappa: float, gamma: float, h: float, integrator: str
) -> tuple[np.ndarray, ...]:
    """Half-spectrum diagonal factors of one step of the given integrator.

    etdrk2: (e^z, h phi1(z), h phi2(z)) with z = -kappa |k|^gamma h;
    ifrk4: (e^{z/2}, e^z).  The arrays are shared between callers and
    threads, so they are read-only.
    """
    z = (-kappa * grid.half_k_abs**gamma) * h
    if integrator == "etdrk2":
        factors = (np.exp(z), h * _phi1(z), h * _phi2(z))
    else:
        e_half = np.exp(z / 2.0)
        factors = (e_half, e_half * e_half)
    for f in factors:
        f.flags.writeable = False
    return factors


def _make_nonlinear(
    config: SolverConfig, grid: GridSpec, S: SpectralField | None, table: SymbolTable
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Stage right-hand side of a stack X = [theta, psi_1, .., psi_n] of half spectra.

    X has shape (1+n,) + grid.half_shape.  Row 0 of the result is
    N(theta) = S - div(u[theta] theta); row i is its derivative
    DN(theta)[psi_i] = -div(u[theta] psi_i + u[psi_i] theta), so one stepper
    run on X advances the base and the exact discrete tangents together.
    All (1+n)(d+1) masked fields and drifts go through one inverse transform,
    which consumes its scratch spectra; the fluxes are formed in place in the
    drift rows of the physical stack and all (1+n)d go through one forward
    transform.  The function also hands back max |u| of row 0's physical
    (dealiased) drift, for the CFL guard.
    The table must carry its divergence certificate: the advection kernel
    does not check the drift.
    """
    if table.grid != grid:
        raise GridMismatchError("symbol table and field grids differ")
    table.require_divergence_free()
    S_half = _forcing_field(S, grid).half
    mask = _dealias_selector(grid, config.dealias)
    values = table.half_values
    d = grid.dimension

    def rhs(X: np.ndarray) -> tuple[np.ndarray, float]:
        spec = np.empty((len(X), d + 1) + grid.half_shape, dtype=np.complex128)
        np.multiply(X, mask, out=spec[:, 0])
        np.multiply(values, spec[:, :1], out=spec[:, 1:])
        phys = _half_to_physical(grid, spec)
        del spec  # consumed by the inverse; free it before the forward transform
        theta, u = phys[0, 0], phys[0, 1:]
        umax = _max_abs(u)
        # fluxes in place in the drift rows; row 0 goes last because the
        # tangent rows' fluxes u[psi_i] theta + u psi_i read its u and theta
        phys[1:, 1:] *= theta
        phys[1:, 1:] += u * phys[1:, :1]
        u *= theta
        out = _flux_divergence(grid, phys[:, 1:], mask)
        np.subtract(S_half, out[0], out=out[0])
        np.negative(out[1:], out=out[1:])
        return out, umax

    return rhs


def _etdrk2_step(c, h, factors, rhs, n0) -> np.ndarray:
    e, hp1, hp2 = factors
    mid = e * c + hp1 * n0
    n1 = rhs(mid)
    return mid + hp2 * (n1 - n0)


def _ifrk4_step(c, h, factors, rhs, k1) -> np.ndarray:
    e_half, e_full = factors
    k2 = rhs(e_half * (c + 0.5 * h * k1))
    k3 = rhs(e_half * c + 0.5 * h * k2)
    k4 = rhs(e_full * c + h * e_half * k3)
    return e_full * c + (h / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


# (X, h, factors, rhs, n0) -> next stack of half spectra; n0 = rhs(X) is
# passed in because step() has already evaluated it for the CFL guard.
_STEPPERS = {"etdrk2": _etdrk2_step, "ifrk4": _ifrk4_step}


def _advance(X, n0, rhs, grid: GridSpec, config: SolverConfig, h: float) -> np.ndarray:
    """One config.integrator step of size h of the stack X; n0 = rhs(X)[0].

    Both schemes are stage-wise linear combinations with diagonal factors,
    so the tangent rows advance by the exact derivative of the base row's step.
    """
    factors = _linear_factors(grid, config.kappa, config.gamma, h, config.integrator)
    return _STEPPERS[config.integrator](X, h, factors, lambda x: rhs(x)[0], n0)


def _nonfinite_shell(grid: GridSpec, coeffs: np.ndarray) -> int:
    bad = ~np.isfinite(coeffs.real) | ~np.isfinite(coeffs.imag)
    if not bad.any():
        return -1
    return int(np.min(grid.half(grid.shell_index)[bad]))


def step(
    state: SimulationState,
    config: SolverConfig,
    S: SpectralField | None,
    table: SymbolTable,
    h: float | None = None,
) -> SimulationState:
    """Advance one time step of size h (defaults to config.dt).

    The linear flow is exact: with zero advection and forcing the update is
    exactly exp(-kappa |k|^gamma h) per coefficient.  Raises StabilityError
    when h exceeds the advective CFL bound by more than a factor of 10,
    BlowUpError when the update produces non-finite coefficients, and
    ContractViolationError when the table is not divergence-free.
    """
    if h is None:
        h = config.dt
    if h is None or h <= 0:
        raise ConfigError("step needs a positive time step (set config.dt or pass h)")
    grid = state.theta.grid
    rhs = _make_nonlinear(config, grid, S, table)

    c = state.theta.half
    n0, umax = rhs(c[None])
    if np.any(c[~_dealias_selector(grid, config.dealias)]):
        # the first stage saw a truncated drift; measure the full one
        bound = cfl_dt(apply_drift(table, state.theta), grid, config.cfl_safety)
    else:
        bound = _cfl_bound(grid, umax, config.cfl_safety)
    if h > CFL_VIOLATION_FACTOR * bound:
        raise StabilityError(t=state.t, h=h, bound=bound, factor=CFL_VIOLATION_FACTOR)

    new = _advance(c[None], n0, rhs, grid, config, h)[0]
    if not np.all(np.isfinite(new.view(np.float64))):
        raise BlowUpError(t=state.t + h, shell=_nonfinite_shell(grid, new))

    theta = SpectralField._of_half(grid, _project_half(grid, new))
    return SimulationState(t=state.t + h, theta=theta, step_count=state.step_count + 1)


def _h1_norm(f: SpectralField) -> float:
    """H^1 norm of f from its half spectrum (equals sobolev_norm(f, 1) to round-off)."""
    return float(np.sqrt(np.sum(f.grid.half_h1_weight * np.abs(f.half) ** 2)))


def _validate_inputs(
    config: SolverConfig,
    theta0: SpectralField,
    S_field: SpectralField,
    check_vertical_mean: bool,
) -> None:
    if config.drift.dimension != theta0.grid.dimension:
        raise ConfigError("drift dimensionality does not match the grid")
    if config.drift.kind == "mg" and check_vertical_mean:
        # Required of user-supplied data; trajectories may later develop
        # vertical-mean energy (passively advected, no drift feedback), so
        # continuation legs disable this check.
        k3 = theta0.grid.wavenumbers[-1]
        plane = np.broadcast_to(k3 == 0, theta0.grid.shape)
        for name, f in (("theta0", theta0), ("forcing", S_field)):
            if float(np.max(np.abs(f.coeffs[plane]), initial=0.0)) > 0.0:
                raise ConfigError(
                    f"mg runs need zero vertical mean: {name} has energy on k3=0"
                )


def run(
    config: SolverConfig,
    theta0: SpectralField,
    S: SpectralField | None = None,
    table: SymbolTable | None = None,
    observers: Sequence[Callable[[SimulationState], None]] = (),
    observe_every: int = 1,
    check_vertical_mean: bool = True,
) -> SimulationState:
    """Integrate from theta0 to t_end; deterministic for identical inputs.

    Observers are invoked on the initial state, every observe_every-th
    accepted step, and on the final state.  Observer exceptions abort the
    run wrapped in ObserverError with the simulation time attached.
    Set check_vertical_mean=False when continuing an mg trajectory from a
    mid-run snapshot.  A table without its divergence certificate is
    rejected with ContractViolationError before the first step.
    """
    if observe_every < 1:
        raise ConfigError(f"observe_every must be >= 1, got {observe_every}")
    grid = theta0.grid
    S_field = _forcing_field(S, grid)
    _validate_inputs(config, theta0, S_field, check_vertical_mean)
    if table is None:
        table = build_symbol_table(config.drift, grid)
    table.require_divergence_free()
    if config.kappa == 0.0 and not table_is_bounded(table):
        warnings.warn(
            "kappa=0 with a singular (unbounded-symbol) drift is only locally "
            "well-posed for analytic data; expect a finite horizon",
            stacklevel=2,
        )

    state = SimulationState(t=0.0, theta=theta0, step_count=0)

    def notify(s: SimulationState) -> None:
        for obs in observers:
            try:
                obs(s)
            except Exception as exc:  # noqa: BLE001 - context added and re-raised
                raise ObserverError(t=s.t, step=s.step_count, cause=exc) from exc

    notify(state)
    if config.t_end == 0.0:
        return state

    h1_ref = max(_h1_norm(theta0), _h1_norm(S_field), 1e-8)

    dt = config.dt if config.dt is not None else _auto_dt(table, theta0, config.cfl_safety)
    eps = 1e-12 * max(config.t_end, 1.0)
    while state.t < config.t_end - eps:
        if config.dt is None and state.step_count > 0 and state.step_count % CFL_RECOMPUTE_EVERY == 0:
            dt = _auto_dt(table, state.theta, config.cfl_safety)
        h = min(dt, config.t_end - state.t)
        state = step(state, config, S, table, h=h)
        if _h1_norm(state.theta) > BLOWUP_GROWTH_FACTOR * h1_ref:
            raise BlowUpError(
                t=state.t,
                shell=0,
                detail=f"H^1 norm grew past {BLOWUP_GROWTH_FACTOR:.0e} x reference",
            )
        is_final = state.t >= config.t_end - eps
        if is_final or state.step_count % observe_every == 0:
            notify(state)
    return state


def exact_linear_state(
    state: SimulationState, config: SolverConfig, t: float
) -> SimulationState:
    """Closed-form heat flow of the current state (u = 0, S = 0 reference)."""
    h = t - state.t
    factors = linear_propagator(state.theta.grid, config.kappa, config.gamma, h)
    theta = SpectralField._wrap(state.theta.grid, state.theta.coeffs * factors)
    return replace(state, t=t, theta=theta)
