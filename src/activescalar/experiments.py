"""Vanishing-limit studies: kappa sweeps, radius tracking, attractor
sampling and semidistance trends in the drift viscosity.

Attractor clouds are finite samples of post-transient trajectories, never
invariant-set computations, so every semidistance statement here is a
monotone-trend check rather than an asserted limit.  All members of a
sweep share bitwise-identical initial data, forcing, grid and dt schedule;
the vanishing-diffusivity reference runs with the fourth-order integrator
at a quarter of the step to keep scheme error below the smallest measured
model difference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .diagnostics import analyticity_radius_estimate
from .errors import ActiveScalarError, EstimationError, SweepAbortedError
from .grid import (
    GridSpec,
    SpectralField,
    gevrey_norm,
    linf_norm,
    sobolev_norm,
)
from .multipliers import SymbolTable, build_symbol_table
from .stepping import SimulationState, SolverConfig, run

__all__ = [
    "SweepPlan",
    "KappaSweepResult",
    "kappa_sweep",
    "difference_norm",
    "gevrey_radius_track",
    "AttractorCloud",
    "attractor_sample",
    "semidistance",
    "nu_sweep_attractor",
    "NuSweepResult",
]

NormRequest = tuple  # ("l2",) | ("hs", s) | ("gevrey", r, tau, s)


def field_digest(f: SpectralField) -> str:
    """SHA-256 of the canonical coefficient bytes (input identity check)."""
    c = np.ascontiguousarray(f.coeffs)
    h = hashlib.sha256()
    h.update(str(f.grid.dimension).encode())
    h.update(str(f.grid.modes_per_axis).encode())
    h.update(c.tobytes())
    return h.hexdigest()


def norm_name(request: NormRequest) -> str:
    kind = request[0]
    if kind == "l2":
        return "l2"
    if kind == "hs":
        return f"hs:{request[1]:g}"
    if kind == "gevrey":
        r, tau, s = request[1:]
        return f"gevrey:{r:g},{tau:g},{s:g}"
    raise ValueError(f"unknown norm request {request!r}")


def difference_norm(a: SpectralField, b: SpectralField, request: NormRequest) -> float:
    """Norm of a - b in the requested topology."""
    diff = a - b
    kind = request[0]
    if kind == "l2":
        return sobolev_norm(diff, 0.0)
    if kind == "hs":
        return sobolev_norm(diff, request[1])
    if kind == "gevrey":
        return gevrey_norm(diff, *request[1:])
    raise ValueError(f"unknown norm request {request!r}")


@dataclass(frozen=True)
class SweepPlan:
    """One-parameter family of runs sharing data, grid and dt schedule."""

    base: SolverConfig
    parameter: str  # "kappa" or "nu"
    values: tuple[float, ...]
    theta0: SpectralField
    forcing: SpectralField
    observation_times: tuple[float, ...] = ()
    norms: tuple[NormRequest, ...] = (("l2",),)

    def __post_init__(self):
        if self.parameter not in ("kappa", "nu"):
            raise ValueError("parameter must be 'kappa' or 'nu'")
        vals = self.values
        if not vals:
            raise ValueError("empty parameter list")
        positive = vals[:-1] if vals[-1] == 0.0 else vals
        if any(v <= 0 for v in positive):
            raise ValueError("parameters must be positive (optional terminal 0)")
        if any(a <= b for a, b in zip(positive, positive[1:])):
            raise ValueError("parameter list must be sorted strictly descending")
        if self.base.dt is None:
            raise ValueError("sweeps need a fixed dt so members share a schedule")

    def member_config(self, value: float) -> SolverConfig:
        if self.parameter == "kappa":
            return replace(self.base, kappa=value)
        return replace(self.base, drift=self.base.drift.with_nu(value))


@dataclass
class KappaSweepResult:
    """Errors against the kappa = 0 reference, per kappa and time."""

    kappas: list[float]
    times: list[float]
    # errors[(kappa, t)][norm label] -> value
    errors: dict[tuple[float, float], dict[str, float]]
    fitted_order: dict[str, float]
    monotone: dict[str, bool]
    input_digests: dict[str, str] = field(default_factory=dict)

    def rows(self) -> list[tuple[float, float, str, float]]:
        out = []
        for (kappa, t), by_norm in sorted(self.errors.items(), reverse=True):
            for label, value in by_norm.items():
                out.append((kappa, t, label, value))
        return out


def _run_with_snapshots(
    config: SolverConfig,
    theta0,
    S,
    times: Sequence[float],
    table: SymbolTable | None = None,
) -> dict[float, SpectralField]:
    """Integrate once, capturing the state at each requested time."""
    wanted = sorted(times)
    snapshots: dict[float, SpectralField] = {}
    eps = 1e-9

    def observer(state: SimulationState) -> None:
        for t in wanted:
            if t not in snapshots and state.t >= t - eps:
                snapshots[t] = state.theta

    final = run(config, theta0, S, table=table, observers=(observer,))
    for t in wanted:
        snapshots.setdefault(t, final.theta)
    return snapshots


def _map_members(member: Callable, values: Sequence[float], max_workers: int) -> list:
    """``[member(v) for v in values]``, on up to ``max_workers`` threads.

    With one worker the members run serially in the calling thread, so
    Ctrl-C stops the sweep at once.
    """
    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(member, values))
    return [member(v) for v in values]


def kappa_sweep(
    plan: SweepPlan, max_workers: int = 1, table: SymbolTable | None = None
) -> KappaSweepResult:
    """Convergence study theta^kappa -> theta^0 at matched times.

    The reference solution uses the ifrk4 integrator at dt/4.  All members
    share one symbol table: ``table`` when given, else one built once from
    the plan's drift.  Returns errors per (kappa, time) and the
    least-squares order of the final-time error in each requested norm.  A
    blow-up in any member aborts the sweep with partial results attached to
    the exception.  Members may run on max_workers threads; aggregation
    order is by parameter, so results are identical for any thread count.
    """
    if plan.parameter != "kappa":
        raise ValueError("kappa_sweep needs a kappa-parameterized plan")
    kappas = [v for v in plan.values if v > 0]
    times = tuple(plan.observation_times) or (plan.base.t_end,)
    if table is None:
        table = build_symbol_table(plan.base.drift, plan.theta0.grid)
    labels = [norm_name(r) for r in plan.norms]

    digests = {
        "theta0": field_digest(plan.theta0),
        "forcing": field_digest(plan.forcing),
    }

    ref_config = replace(
        plan.member_config(0.0), integrator="ifrk4", dt=plan.base.dt / 4.0
    )
    result = KappaSweepResult(
        kappas=kappas, times=list(times), errors={}, fitted_order={}, monotone={},
        input_digests=digests,
    )

    def member(kappa: float):
        return _run_with_snapshots(
            plan.member_config(kappa), plan.theta0, plan.forcing, times, table
        )

    try:
        ref_snaps = _run_with_snapshots(ref_config, plan.theta0, plan.forcing, times, table)
        snaps_by_kappa = dict(zip(kappas, _map_members(member, kappas, max_workers)))
        for kappa in kappas:
            snaps = snaps_by_kappa[kappa]
            for t in times:
                result.errors[(kappa, t)] = {
                    norm_name(r): difference_norm(snaps[t], ref_snaps[t], r)
                    for r in plan.norms
                }
    except ActiveScalarError as exc:
        raise SweepAbortedError(partial=result, cause=exc) from exc

    t_final = times[-1]
    for req, label in zip(plan.norms, labels):
        errs = np.array([result.errors[(k, t_final)][label] for k in kappas])
        ks = np.array(kappas)
        ok = np.all(errs > 0)
        result.monotone[label] = bool(np.all(np.diff(errs) < 0))
        result.fitted_order[label] = (
            float(np.polyfit(np.log(ks), np.log(errs), 1)[0]) if ok else float("nan")
        )
    return result


def gevrey_radius_track(
    config: SolverConfig,
    theta0: SpectralField,
    S: SpectralField,
    r: float = 0.0,
    s: float = 1.0,
    tau_schedule: Callable[[float], float] | None = None,
    observe_every: int = 1,
    fit_window: tuple[int, int] | None = None,
    table: SymbolTable | None = None,
) -> list[tuple[float, float, float]]:
    """Track the analyticity-radius estimate along a run.

    Emits (t, tau_hat, gevrey norm at the prescribed tau(t)) rows; the run
    halts once tau_hat falls below twice the grid spacing, the resolvable
    analyticity scale.  The initial estimate must be reliable.  ``table``
    is passed on to ``run``, which builds one from the drift when it is None.
    """
    n = theta0.grid.modes_per_axis
    first = analyticity_radius_estimate(theta0, fit_window)
    if not first.reliable:
        raise EstimationError("initial radius estimate unreliable on this grid")
    if tau_schedule is None:
        tau0 = first.tau_hat
        tau_schedule = lambda t: 0.5 * tau0  # noqa: E731 - simple default
    floor = 2.0 * (2.0 * np.pi / n)
    rows: list[tuple[float, float, float]] = []

    class _Halt(Exception):
        pass

    def observer(state: SimulationState) -> None:
        est = analyticity_radius_estimate(state.theta, fit_window)
        tau_t = tau_schedule(state.t)
        rows.append((state.t, est.tau_hat, gevrey_norm(state.theta, r, tau_t, s)))
        if est.tau_hat < floor:
            raise _Halt()

    try:
        run(
            config, theta0, S, table=table, observers=(observer,), observe_every=observe_every
        )
    except ActiveScalarError as exc:
        if not isinstance(exc.__cause__, _Halt):
            raise
    return rows


# ---------------------------------------------------------------------------
# Attractor clouds


@dataclass(frozen=True)
class AttractorCloud:
    """Post-transient snapshots approximating an attractor."""

    snapshots: tuple[SpectralField, ...]
    nu: float
    kappa: float
    transient: float
    cadence: float
    flagged: int = 0  # snapshots outside the calibrated absorbing ball

    def __post_init__(self):
        if not self.snapshots:
            raise ValueError("empty attractor cloud")
        grid = self.snapshots[0].grid
        for f in self.snapshots[1:]:
            if f.grid != grid:
                raise ValueError("cloud snapshots on different grids")

    @property
    def grid(self) -> GridSpec:
        return self.snapshots[0].grid


def attractor_sample(
    config: SolverConfig,
    theta0s: Sequence[SpectralField],
    S: SpectralField,
    transient: float,
    cadence: float,
    count: int,
    c0_hat: float = 1.0,
) -> AttractorCloud:
    """Sample `count` snapshots after the transient, `cadence` apart.

    Snapshots whose sup norm exceeds the absorbing-ball bound
    3 ||S||_inf / (c0_hat kappa) are counted in `flagged`.  The ensemble is
    split evenly across the provided initial conditions.
    """
    if config.kappa <= 0:
        raise ValueError("attractor sampling requires kappa > 0")
    if cadence <= 0:
        raise ValueError("cadence must be positive")
    if count < 1:
        raise ValueError("need at least one snapshot")
    if not theta0s:
        raise ValueError("need at least one initial condition")

    table = build_symbol_table(config.drift, theta0s[0].grid)
    ball_radius = 3.0 * linf_norm(S) / (c0_hat * config.kappa)
    per_member = -(-count // len(theta0s))  # ceil division
    snapshots: list[SpectralField] = []
    flagged = 0
    for theta0 in theta0s:
        settle = replace(config, t_end=transient)
        state = run(settle, theta0, S, table=table)
        theta = state.theta
        hop = replace(config, t_end=cadence)
        for _ in range(per_member):
            theta = run(hop, theta, S, table=table, check_vertical_mean=False).theta
            snapshots.append(theta)
            if linf_norm(theta) > ball_radius * (1.0 + 1e-9):
                flagged += 1
    snapshots = snapshots[:count]
    return AttractorCloud(
        snapshots=tuple(snapshots),
        nu=getattr(config.drift, "nu", 0.0),
        kappa=config.kappa,
        transient=transient,
        cadence=cadence,
        flagged=flagged,
    )


def semidistance(a: AttractorCloud, b: AttractorCloud, norm: str = "l2") -> float:
    """sup over a-snapshots of the inf distance to b (asymmetric)."""
    if a.grid != b.grid:
        raise ValueError("clouds live on different grids")
    if norm == "l2":
        s = 0.0
    elif norm == "h1":
        s = 1.0
    else:
        raise ValueError("norm must be 'l2' or 'h1'")
    worst = 0.0
    for fa in a.snapshots:
        best = min(sobolev_norm(fa - fb, s) for fb in b.snapshots)
        worst = max(worst, best)
    return worst


@dataclass
class NuSweepResult:
    rows: list[tuple[float, float]]  # (nu, semidistance), nu descending
    spearman: float
    norm: str


def nu_sweep_attractor(
    plan: SweepPlan,
    reference: AttractorCloud,
    transient: float,
    cadence: float,
    count: int,
    norm: str = "l2",
    c0_hat: float = 1.0,
    max_workers: int = 1,
) -> NuSweepResult:
    """Semidistance of each nu-cloud to the reference, plus the Spearman
    correlation of semidistance against nu (positive = shrinking toward
    the limit).  Clouds are independent, so members may run on threads;
    the row order is by nu regardless of worker count."""
    if plan.parameter != "nu":
        raise ValueError("nu_sweep_attractor needs a nu-parameterized plan")
    nus = [v for v in plan.values if v > 0]

    def member(nu: float) -> AttractorCloud:
        return attractor_sample(
            plan.member_config(nu), [plan.theta0], plan.forcing,
            transient, cadence, count, c0_hat,
        )

    clouds = _map_members(member, nus, max_workers)
    rows = [(nu, semidistance(cloud, reference, norm)) for nu, cloud in zip(nus, clouds)]
    corr = _spearman([r[0] for r in rows], [r[1] for r in rows])
    return NuSweepResult(rows=rows, spearman=corr, norm=norm)


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions."""
    order = np.argsort(a, kind="mergesort")
    sorted_a = a[order]
    new_value = np.r_[True, sorted_a[1:] != sorted_a[:-1]]
    bounds = np.r_[np.flatnonzero(new_value), len(a)]  # tie groups [bounds[g], bounds[g+1])
    ranks = np.empty(len(a))
    ranks[order] = (0.5 * (bounds[:-1] + bounds[1:] + 1))[np.cumsum(new_value) - 1]
    return ranks


def _spearman(x, y) -> float:
    """Spearman's rank correlation by scipy's own formula (average ranks,
    then Pearson): nan for fewer than two pairs, a constant input or a nan."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return float("nan")
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])
