"""The four benchmark workloads: config text from a seed, the ``ascl`` call,
the step count a run must take, and the checks its outputs must pass.

The config values are chosen so that every seed gives the same step count
and no run fails: the seed only changes the random phases of the initial
data and the forcing (``init.seed``, ``forcing.seed``) and the tangent set
(``--seed``).  ``sqg2d_diag`` uses ``solver.dt = auto``; its amplitudes keep
the CFL bound above ``DT_MAX``, so the capped step is the one taken and the
CFL recompute still runs every 10 steps.

Check functions run in the job process after the timed call and need
``activescalar``; everything else here imports only the standard library.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
DT_MAX = 0.05  # activescalar.stepping.DT_MAX, the auto-dt cap
L2_RTOL = 1e-12  # checkpoint reload against the last CSV l2
SEEDED_KEYS = ("init.seed", "forcing.seed")


def fixed_dt_steps(t_end: float, dt: float) -> int:
    """Accepted steps of ``stepping.run`` at a fixed dt (same float arithmetic)."""
    t, n = 0.0, 0
    eps = 1e-12 * max(t_end, 1.0)
    while t < t_end - eps:
        t += min(dt, t_end - t)
        n += 1
    return n


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    keys: dict
    threads: int = 1  # --threads
    checkpoint_every: int = 0  # --checkpoint-every, 0 for the final checkpoint only

    @property
    def modes(self) -> int:
        return int(self.keys["grid.modes"])

    @property
    def dimension(self) -> int:
        return 3 if self.keys["drift.kind"] == "mg" else 2

    def config_text(self, seed: int) -> str:
        kv = dict(self.keys)
        for i, key in enumerate(SEEDED_KEYS):
            kv[key] = str(job_seed(seed) + i)
        return "".join(f"{k} = {v}\n" for k, v in kv.items())

    def argv(self, config_path: Path, out: Path, seed: int) -> list[str]:
        return [self.command, str(config_path), "--out", str(out), "--seed", str(job_seed(seed)),
                "--threads", str(self.threads), "--checkpoint-every", str(self.checkpoint_every)]

    def f(self, key: str) -> float:
        return float(self.keys[key])


def job_seed(seed: int) -> int:
    """Map any ``--seed`` value onto a non-negative generator seed."""
    return seed % (2**31)


_COMMON_SQG = {
    "drift.kind": "sqg",
    "solver.gamma": "1",
    "init.kind": "random_band",
    "init.kmin": "1",
    "forcing.kind": "random_band",
    "forcing.kmin": "1",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mg3d_run",
            command="run",
            keys={
                "drift.kind": "mg",
                "drift.nu": "0.5",
                "grid.modes": "48",
                "solver.kappa": "0.05",
                "solver.t_end": "0.2",
                "solver.dt": "0.02",
                "init.kind": "random_band",
                "init.kmin": "1",
                "init.kmax": "6",
                "init.amplitude": "1.0",
                "forcing.kind": "random_band",
                "forcing.kmin": "1",
                "forcing.kmax": "3",
                "forcing.amplitude": "0.5",
                "diag.observe_every": "10",
            },
        ),
        Workload(
            name="sqg2d_diag",
            command="run",
            keys={
                **_COMMON_SQG,
                "grid.modes": "128",
                "solver.kappa": "0.02",
                "solver.t_end": "1",
                "solver.dt": "auto",
                "init.kmax": "8",
                "init.amplitude": "0.1",
                "forcing.kmax": "3",
                "forcing.amplitude": "0.02",
                "diag.hs": "1 2",
            },
            checkpoint_every=20,
        ),
        Workload(
            name="lyap2d_tangent",
            command="lyapunov",
            keys={
                **_COMMON_SQG,
                "grid.modes": "32",
                "solver.kappa": "0.05",
                "solver.t_end": "1",
                "solver.dt": "0.02",
                "init.kmax": "4",
                "init.amplitude": "1.0",
                "forcing.kmax": "2",
                "forcing.amplitude": "0.5",
                "lyapunov.n": "8",
                "lyapunov.renorm_interval": "0.1",
                "lyapunov.total_time": "0.4",
            },
        ),
        Workload(
            name="mg3d_nu_sweep",
            command="sweep-nu",
            keys={
                "drift.kind": "mg",
                "grid.modes": "24",
                "solver.kappa": "0.1",
                "solver.t_end": "1",
                "solver.dt": "0.02",
                "init.kind": "random_band",
                "init.kmin": "1",
                "init.kmax": "4",
                "init.amplitude": "1.0",
                "forcing.kind": "random_band",
                "forcing.kmin": "1",
                "forcing.kmax": "2",
                "forcing.amplitude": "0.5",
                "sweep.nus": "1 0.5 0.25",
                "sweep.transient": "0.4",
                "sweep.cadence": "0.1",
                "sweep.count": "4",
            },
            threads=2,
        ),
    )
}


# ---------------------------------------------------------------------------
# Step counts


def expected_steps(w: Workload) -> int | None:
    """Accepted steps of the invocation, or None when only the output tells."""
    if w.command == "run":
        if w.keys["solver.dt"] == "auto":
            return None
        return fixed_dt_steps(w.f("solver.t_end"), w.f("solver.dt"))
    dt = w.f("solver.dt")
    if w.command == "lyapunov":
        # tangent.lyapunov_run rounds the interval to whole steps
        per = max(1, int(round(w.f("lyapunov.renorm_interval") / dt)))
        intervals = max(1, int(round(w.f("lyapunov.total_time") / (per * dt))))
        return per * intervals
    if w.command == "sweep-nu":
        clouds = len(w.keys["sweep.nus"].split()) + 1  # plus the nu=0 reference
        per_cloud = fixed_dt_steps(w.f("sweep.transient"), dt) + int(
            w.keys["sweep.count"]
        ) * fixed_dt_steps(w.f("sweep.cadence"), dt)
        return clouds * per_cloud
    raise ValueError(f"no step count for {w.command}")


# ---------------------------------------------------------------------------
# Output checks


@dataclass
class CheckResult:
    steps: int = 0
    errors: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)  # values compared at DEFAULT_SEED

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def _read_csv(path: Path, text_columns: tuple = ()) -> tuple[list[str], list[list]]:
    """Header and rows, with every column not in ``text_columns`` as float."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    text = [name in text_columns for name in header]
    return header, [[v if t else float(v) for v, t in zip(row, text)] for row in rows]


def _all_finite(rows) -> bool:
    return all(math.isfinite(v) for row in rows for v in row if isinstance(v, float))


def _check_final_checkpoint(res: CheckResult, out: Path, header, rows) -> None:
    from activescalar.cli import load_checkpoint
    from activescalar.grid import sobolev_norm

    state, _ = load_checkpoint(out / "final.ckpt")
    last = dict(zip(header, rows[-1]))
    res.require(state.t == last["t"], f"final.ckpt t={state.t} != last CSV t={last['t']}")
    l2 = sobolev_norm(state.theta, 0.0)
    res.require(
        abs(l2 - last["l2"]) <= L2_RTOL * max(abs(last["l2"]), 1e-300),
        f"final.ckpt l2={l2!r} != last CSV l2={last['l2']!r}",
    )


def check_outputs(w: Workload, out: Path) -> CheckResult:
    res = CheckResult()
    try:
        _CHECKS[w.command](w, out, res)
    except Exception as exc:  # noqa: BLE001 - any failure to read outputs is a failed check
        res.errors.append(f"output check raised {type(exc).__name__}: {exc}")
    return res


def _check_run(w: Workload, out: Path, res: CheckResult) -> None:
    header, rows = _read_csv(out / "diagnostics.csv")
    hs = w.keys.get("diag.hs", "1").split()
    want = ["t", "l2"] + [f"h{float(s):g}" for s in hs] + ["linf", "dissipation_rate"]
    res.require(header == want, f"diagnostics header {header} != {want}")
    res.require(_all_finite(rows), "non-finite value in diagnostics.csv")
    t_end = w.f("solver.t_end")
    ts = [r[0] for r in rows]
    res.require(ts[0] == 0.0, "first diagnostics row is not t=0")
    res.require(abs(ts[-1] - t_end) <= 1e-12 * max(t_end, 1.0), f"last row t={ts[-1]} != t_end")
    res.require(all(b > a for a, b in zip(ts, ts[1:])), "diagnostics times not increasing")
    every = int(w.keys.get("diag.observe_every", "1"))
    steps = expected_steps(w)
    if steps is None:  # auto dt, recorded every step: one row per step
        res.require(every == 1, "auto-dt workloads must record every step")
        steps = len(rows) - 1
        res.require(
            all(b - a <= DT_MAX * (1 + 1e-9) for a, b in zip(ts, ts[1:])),
            "auto dt exceeded DT_MAX",
        )
        res.require(steps >= round(t_end / DT_MAX), f"{steps} steps cannot reach t_end")
    else:
        want_rows = 1 + steps // every + (1 if steps % every else 0)
        res.require(len(rows) == want_rows, f"{len(rows)} diagnostics rows, want {want_rows}")
    res.steps = steps
    n_ckpt = len(list(out.glob("checkpoint_*.ckpt")))
    want_ckpt = steps // w.checkpoint_every if w.checkpoint_every else 0
    res.require(n_ckpt == want_ckpt, f"{n_ckpt} periodic checkpoints, want {want_ckpt}")
    _check_final_checkpoint(res, out, header, rows)
    res.reference = {f"final.{k}": v for k, v in zip(header, rows[-1])}


def _check_lyapunov(w: Workload, out: Path, res: CheckResult) -> None:
    n = int(w.keys["lyapunov.n"])
    header, rows = _read_csv(out / "lyapunov.csv")
    res.require(header == ["index", "exponent", "cumulative_sum"], f"lyapunov header {header}")
    res.require(len(rows) == n, f"{len(rows)} lyapunov rows, want {n}")
    res.require(_all_finite(rows), "non-finite value in lyapunov.csv")
    exps = [r[1] for r in rows]
    res.require(all(a >= b for a, b in zip(exps, exps[1:])), "exponents not sorted descending")
    extra = json.loads((out / "manifest.json").read_text())["extra"]
    ky = extra["ky_dimension"]
    res.require(0.0 <= ky <= n, f"ky_dimension {ky} outside [0, {n}]")
    res.steps = expected_steps(w)
    res.reference = {f"exponent.{i + 1}": v for i, v in enumerate(exps)}
    res.reference["ky_dimension"] = ky


def _check_sweep_nu(w: Workload, out: Path, res: CheckResult) -> None:
    nus = [float(v) for v in w.keys["sweep.nus"].split()]
    header, rows = _read_csv(out / "sweep_nu.csv", text_columns=("norm_name",))
    res.require(header == ["param", "t", "norm_name", "value"], f"sweep_nu header {header}")
    res.require([r[0] for r in rows] == nus, f"sweep_nu params {[r[0] for r in rows]} != {nus}")
    res.require(_all_finite(rows), "non-finite value in sweep_nu.csv")
    res.require(all(r[3] >= 0 for r in rows), "negative semidistance")
    res.steps = expected_steps(w)
    res.reference = {f"semidistance.nu={r[0]:g}": r[3] for r in rows}


_CHECKS = {"run": _check_run, "lyapunov": _check_lyapunov, "sweep-nu": _check_sweep_nu}
