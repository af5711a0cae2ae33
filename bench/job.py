"""One benchmark job: a fresh process that sets up once, then makes ``ascl`` calls.

Usage: ``python3 bench/job.py SPEC.json`` with ``activescalar`` importable
(``run.py`` sets ``PYTHONPATH`` to the checkout's ``src``).  The spec names
the workload, seed, job directory, the job's time budget and whether to
trace.  The job times

* set-up: ``import activescalar``, ``parse_config`` and ``build_symbol_table``;
* each call: ``activescalar.cli.main`` on the generated config, outputs included;

reads its own peak RSS after the first call and checks the outputs of every
call.  An untraced job repeats the call while another one fits in its budget
(at least one call), and times complex ``numpy.fft.fftn`` calls at the
workload's N, on as many threads as the run uses, before the first call and
after each call; a call's ``fft_ms`` is the mean over the probes on both
sides of it.  A traced job makes one call, adds its per-layer metrics and
writes its spans to ``spans.jsonl`` in the job directory.  The job prints
one JSON line.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import workloads

FFT_PROBE_SECONDS = 0.1  # before the first call and after every call


def fft_probe(n: int, d: int, threads: int) -> tuple[float, int]:
    """Thread-seconds spent in, and number of, complex N^d ``numpy.fft.fftn``
    calls made back to back for about ``FFT_PROBE_SECONDS`` on each of
    ``threads`` threads, the concurrency of the workload's own run."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n,) * d) + 1j * rng.standard_normal((n,) * d)
    np.fft.fftn(a)

    def loop(_) -> tuple[float, int]:
        reps, start = 0, time.perf_counter()
        while reps < 5 or time.perf_counter() - start < FFT_PROBE_SECONDS:
            np.fft.fftn(a)
            reps += 1
        return time.perf_counter() - start, reps

    if threads == 1:
        return loop(0)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(loop, range(threads)))
    return sum(t for t, _ in parts), sum(r for _, r in parts)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    deadline = time.monotonic() + spec["budget_s"]
    w = workloads.WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    job_dir = Path(spec["dir"])
    config_path = job_dir / "run.cfg"
    text = w.config_text(seed)
    config_path.write_text(text)

    t0 = time.perf_counter()
    import activescalar
    from activescalar import cli
    from activescalar.multipliers import build_symbol_table

    parsed = cli.parse_config(text, default_seed=workloads.job_seed(seed))
    build_symbol_table(parsed.config.drift, parsed.grid)
    setup_s = time.perf_counter() - t0

    src = Path(spec["src"]).resolve()
    if src not in Path(activescalar.__file__).resolve().parents:
        print(f"activescalar imported from {activescalar.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(run_id=job_dir.name, lattice_size=w.modes**w.dimension)
        tracer.install()
    ascl = tracer.wrap(cli.main, spans.ROOT) if tracer else cli.main

    # Untraced jobs repeat the call until the deadline.  The reference
    # transform is timed between calls, so that each call's
    # fft_equiv_per_step divides by the machine speed on both sides of it.
    probe = [] if tracer else [fft_probe(w.modes, w.dimension, w.threads)]
    result = {"setup_s": setup_s, "calls": [], "errors": []}
    errors = result["errors"]
    while not errors:
        out = job_dir / f"out{len(result['calls'])}"
        t1 = time.perf_counter()
        try:
            rc = ascl(w.argv(config_path, out, seed))
        except Exception as exc:  # noqa: BLE001 - a traceback is a failed run, reported below
            rc = None
            errors.append(f"ascl {w.command} raised {type(exc).__name__}: {exc}")
        call = {"run_s": time.perf_counter() - t1}
        if not result["calls"]:  # peak memory of one invocation
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if probe:
            probe.append(fft_probe(w.modes, w.dimension, w.threads))
            (ta, na), (tb, nb) = probe[-2:]
            call["fft_ms"] = 1e3 * (ta + tb) / (na + nb)
        if rc != 0:
            errors.append(f"exit code {rc}")
            break
        check = workloads.check_outputs(w, out)
        errors += check.errors
        call["steps"] = check.steps
        call["reference"] = check.reference
        if tracer and not check.errors:
            ckpt_bytes = sum(p.stat().st_size for p in out.glob("*.ckpt"))
            layers = spans.layer_metrics(tracer, check.steps, w.threads, ckpt_bytes)
            stepper = "tangent.tangent_step" if w.command == "lyapunov" else "stepping.step"
            if layers[f"{stepper}.calls"] != check.steps:
                errors.append(f"{layers[f'{stepper}.calls']} {stepper} calls, want {check.steps}")
            call["layers"] = layers
            tracer.dump(job_dir / "spans.jsonl")
        shutil.rmtree(out)
        result["calls"].append(call)
        # A traced job makes one call; an untraced one another call while
        # the last call and its probe still fit before the deadline.
        if tracer or time.monotonic() + (time.perf_counter() - t1) > deadline:
            break
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
