"""The activescalar benchmark: one command, every workload, checked outputs.

    python3 bench/run.py --workload mg3d_run --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --out report.json

Each job is one fresh ``python3 bench/job.py`` process that sets up once and
then makes ``ascl`` calls through ``activescalar.cli.main`` (see ``job.py``).
Jobs run back to back, one at a time (a closed loop with one client), until
``--seconds`` have passed and at least ``MIN_JOBS`` have run.  ``setup_s``
and ``peak_rss_mb`` are medians over the jobs, the timings medians over all
calls of all jobs.  BLAS and OpenMP pools are pinned to one thread, so
a job uses at most ``--threads`` = 2 threads (``mg3d_nu_sweep``), which is
``nproc`` on the reference machine.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json and, without a
bound, the raw wall times ``run_s``, ``ms_per_step`` and ``fft_ms``; the
result line holds the former only.  ``--trace 1`` prints
the per-layer ones: it alternates untraced and traced jobs, takes the layer
metrics from the traced ones and reports ``trace.overhead_s``, traced minus
untraced median run time.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

At the default seed the outputs are compared with ``reference.json``;
``--write-reference`` stores the current outputs there instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
MIN_JOBS = 4  # untraced jobs per run, so that setup_s is a median of at least 4
MIN_TRACED = 3  # traced jobs per traced run, each after an untraced one
JOB_TIMEOUT_S = 120
MAX_RUN_S = 150  # stop starting jobs after this, so a run ends within 180 s
# Exact-repeat metrics: every job of a run must give the same value.
COUNT_SUFFIXES = (".calls", ".count_per_step", ".bytes_per_step", ".transforms_per_call")
# Printed with --trace 0 next to the end-to-end metrics of BENCHMARK.json but
# not in the result line: raw wall times of a call follow the speed of the
# shared host, which drifts by more than any allowed bound (see NOTES.md).
UNBOUNDED = ({"name": "run_s", "unit": "s"}, {"name": "ms_per_step", "unit": "ms"},
             {"name": "fft_ms", "unit": "ms"})
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with cached byte code, as users run
    return env


def run_job(workload: str, seed: int, trace: bool, budget_s: float, job_dir: Path) -> dict:
    """One job in a fresh process; returns its result with an ``errors`` list."""
    job_dir.mkdir(parents=True)
    spec = {"workload": workload, "seed": seed, "trace": trace, "budget_s": budget_s,
            "dir": str(job_dir), "src": str(ROOT / "src")}
    spec_path = job_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py"), str(spec_path)],
            env=job_env(), capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"job timed out after {JOB_TIMEOUT_S} s"], "wall_s": JOB_TIMEOUT_S}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"job exited {proc.returncode}: {tail[0]}"], "wall_s": wall}
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def end_to_end(jobs: list[dict]) -> dict[str, list[float]]:
    """Set-up and memory per job; the timings per call, over all jobs."""
    calls = [c for j in jobs for c in j["calls"]]
    per_step = [1e3 * c["run_s"] / c["steps"] for c in calls]
    return {
        "setup_s": [j["setup_s"] for j in jobs],
        "run_s": [c["run_s"] for c in calls],
        "ms_per_step": per_step,
        "fft_equiv_per_step": [ms / c["fft_ms"] for ms, c in zip(per_step, calls)],
        "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
        "fft_ms": [c["fft_ms"] for c in calls],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Layer metrics of the traced jobs (one call each) and the tracing overhead."""
    plain = [c for j in plain for c in j["calls"]]
    traced = [j["calls"][0] for j in traced]
    values = {name: [j["layers"][name] for j in traced] for name in traced[0]["layers"]}
    errors = [
        f"{name} differs between jobs: {sorted(set(vals))}"
        for name, vals in values.items()
        if name.endswith(COUNT_SUFFIXES) and len(set(vals)) > 1
    ]
    traced_run = statistics.median(j["run_s"] for j in traced)
    values["trace.overhead_s"] = [traced_run - statistics.median(j["run_s"] for j in plain)]
    values["trace.run_s"] = [j["run_s"] for j in traced]
    return values, errors


def reference_errors(workload: str, jobs: list[dict], seed: int, write: bool) -> list[str]:
    """Outputs repeat exactly between the calls of a run and, at the default
    seed, match the stored reference values within its relative tolerance."""
    calls = [c for j in jobs for c in j["calls"]]
    first = calls[0]["reference"]
    errors = [f"outputs differ between calls of one run: {c['reference']} != {first}"
              for c in calls[1:] if c["reference"] != first]
    if seed != workloads.DEFAULT_SEED:
        return errors
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"rtol": 1e-6}
    if write:
        stored.setdefault("workloads", {})[workload] = first
        REFERENCE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        return errors
    want = stored.get("workloads", {}).get(workload)
    if want is None:
        return errors + [f"no reference values for {workload} in {REFERENCE.name}"]
    if set(want) != set(first):
        return errors + [f"reference keys {sorted(want)} != output keys {sorted(first)}"]
    rtol = stored["rtol"]
    for key, ref in want.items():
        if abs(first[key] - ref) > rtol * max(abs(ref), 1e-300):
            errors.append(f"{key} = {first[key]!r}, reference {ref!r} (rtol {rtol:g})")
    return errors


def measure(workload: str, seed: int, seconds: float, trace: bool, write_ref: bool) -> dict:
    """Run jobs of one workload for ``seconds``.

    Untraced, the time left is shared among the jobs still to come, at least
    ``MIN_JOBS``, and a job repeats its call while another fits in its share.
    Traced, untraced and traced jobs of one call each alternate.

    Returns the successful untraced and traced jobs, the failed job count,
    every failure message (job or run level) and the metric samples.
    """
    run_dir = WORK / f"{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    good, traced, failures, failed, attempted = [], [], [], 0, 0
    start = time.perf_counter()
    try:
        need = 0.0  # wall time of a job with one call, from the last job
        while True:
            trace_this = trace and len(traced) < len(good)
            left = seconds - (time.perf_counter() - start)
            budget = 0.0 if trace else left / max(1, MIN_JOBS - len(good))
            job_dir = run_dir / f"job{attempted}"
            job = run_job(workload, seed, trace_this, budget, job_dir)
            attempted += 1
            if job["errors"]:
                failed += 1
                failures.append(f"job {attempted - 1}: " + "; ".join(job["errors"]))
            else:
                run_s = [c["run_s"] for c in job["calls"]]
                need = job["wall_s"] - sum(run_s) + max(run_s)
                print(f"   job {attempted - 1}{' traced' if trace_this else ''}: setup_s "
                      f"{job['setup_s']:.4f}  steps {job['calls'][0]['steps']}  run_s "
                      + " ".join(f"{t:.4f}" for t in run_s)
                      + ("" if trace_this else "  fft_ms "
                         + " ".join(f"{c['fft_ms']:.4f}" for c in job["calls"])))
                if trace_this:
                    traced.append(job)
                    shutil.copyfile(job_dir / "spans.jsonl", WORK / f"spans-{workload}.jsonl")
                else:
                    good.append(job)
            elapsed = time.perf_counter() - start
            short = (len(traced) < MIN_TRACED) if trace else (len(good) < MIN_JOBS)
            if trace:
                done = elapsed * (1 + 1 / attempted) > seconds
            else:
                done = elapsed + need > seconds
            if (done and not short) or failures or elapsed > MAX_RUN_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if good or traced:
        failures += reference_errors(workload, good + traced, seed, write_ref)
    values = end_to_end(good) if good else {}
    if trace and good and traced:
        layer_values, errors = per_layer(good, traced)
        values.update(layer_values)
        failures += errors
    return {"attempted": attempted, "failed": failed, "jobs": len(good),
            "calls": sum(len(j["calls"]) for j in good),
            "traced_jobs": len(traced), "failures": failures, "values": values,
            "elapsed_s": time.perf_counter() - start}


def machine_block(seed: int, fft_ms: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": PINNED_THREADS,
        "seed": seed,
        "reference_fftn_ms": fft_ms,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write a JSON report with the machine block")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's outputs as {REFERENCE.name} (default seed only)")
    args = parser.parse_args()
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        parser.error("--write-reference needs the default seed")
    if not (ROOT / "src" / "activescalar" / "__init__.py").is_file():
        print(f"benchmark: no activescalar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    warm = subprocess.run([sys.executable, "-c", "import activescalar"], env=job_env(),
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"benchmark: cannot import activescalar: {warm.stderr.strip()}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    metrics, report = {}, {}
    for name in chosen:
        res = measure(name, args.seed, args.seconds, bool(args.trace), args.write_reference)
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and not res["failures"]
        count = res["traced_jobs"] if args.trace else res["jobs"]
        print(f"== {name}: seed {args.seed}, {res['attempted']} jobs attempted, "
              f"{count} {'traced ' if args.trace else ''}jobs"
              + ("" if args.trace else f" with {res['calls']} calls") + " measured in "
              f"{res['elapsed_s']:.1f} s, fail_rate {res['failed'] / res['attempted']:.3f}")
        for failure in res["failures"]:
            print(f"   FAILED {failure}")
        report[name] = {"jobs": count, "attempted": res["attempted"], "failures": res["failures"]}
        for m in wanted + ([] if args.trace else list(UNBOUNDED)):
            vals = res["values"].get(m["name"])
            if not vals:
                continue
            med, q1, q3 = summary(vals)
            if m in wanted:
                key = m["name"] if len(chosen) == 1 else f"{name}.{m['name']}"
                metrics[key] = {"value": med, "unit": m["unit"]}
            report[name][m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"]}
            print(f"   {m['name']:<40} {med:>14.6g} {m['unit']:<14} "
                  f"(median of {len(vals)}, quartiles {q1:.6g} .. {q3:.6g})"
                  + ("" if m in wanted else "  no bound"))

    missing = [f"{n}.{m['name']}" for n in chosen for m in wanted if m["name"] not in report[n]]
    if missing:
        print(f"   MISSING metrics {missing}")
    if args.out:
        fft = {}
        for n in chosen:
            w = workloads.WORKLOADS[n]
            if "fft_ms" in report[n]:
                fft[f"{w.modes}^{w.dimension}, {w.threads} thread(s)"] = report[n]["fft_ms"]["median"]
        args.out.write_text(json.dumps(
            {"machine": machine_block(args.seed, fft), "seconds": args.seconds,
             "trace": args.trace, "workloads": report}, indent=2) + "\n")
    correct = correct and not missing
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
