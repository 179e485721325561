#!/usr/bin/env python3
"""Benchmark of zsl-embed: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload small-grid --seed 1 --seconds 25 --trace 0

Run from the repository root. The workload's inputs are generated from
``--seed``; the program under test is imported from ``src/``. Set-up runs
several times and its median is reported; then whole rounds of the
workload run until ``--seconds`` have passed (at least one round), each
round's outputs are checked, and the last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics from the traced
rounds plus the tracing overhead, and writes the spans to
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("small-grid", "paper-train", "paper-eval")
# One BLAS thread per process. The 32/48/64 grid runs fastest that way;
# at paper scale a second thread gains about a fifth but makes rounds
# swing by 15% within a run, against 5% on one thread.
BLAS_THREADS = 1
END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MiB"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("gflop_per_s", "GFLOP/s"), ("_gflop", "GFLOP"), ("_mb", "MB"),
                         ("_mb_moved", "MB"), ("_pct", "%"), ("_s", "s"), ("_s_max", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def limit_threads() -> None:
    """Cap BLAS threads; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program() -> None:
    """Put this checkout's ``src`` and the benchmark first on the import path."""
    if not (ROOT / "src" / "zsl_embed" / "__init__.py").is_file():
        raise FileNotFoundError(f"no zsl_embed sources under {ROOT / 'src'}")
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def peak_rss_mib() -> float:
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        inspect=None) -> dict:
    """Set up, run and check one workload.

    Returns the result object, the check failures and the workload's
    summary figures. ``inspect(workload, state, last_output)``, if given,
    runs before the working files are removed; its value is returned too.
    """
    import tracing
    import workloads

    scales = workloads.TINY if tiny else workloads.FULL
    wl = workloads.WORKLOADS[workload](scales[workload])
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None

    def phase(label: str, traced: bool = True):
        return tracer.installed(label) if tracer and traced else contextlib.nullcontext()

    attempted = failed = 0
    errors: list[str] = []
    setup_s: list[float] = []
    round_s: list[float] = []
    traced_s: list[float] = []
    out = None
    try:
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            with phase(f"setup:{i}"):
                state = wl.setup(seed, workdir)
            setup_s.append(time.perf_counter() - start)

        begin = time.perf_counter()
        while not (round_s or failed) or time.perf_counter() - begin < seconds:
            # a traced run follows every untraced round with a traced one
            for traced in ((False, True) if trace else (False,)):
                attempted += wl.ops_per_round
                label = f"round:{len(traced_s)}"
                out = None
                start = time.perf_counter()
                try:
                    with phase(label, traced):
                        out = wl.round(state)
                except Exception:  # a round that raises counts all its operations as failed
                    traceback.print_exc()
                    failed += wl.ops_per_round
                    continue
                (traced_s if traced else round_s).append(time.perf_counter() - start)
                n = len(round_s) + len(traced_s)
                errors += [f"round {n}: {e}" for e in wl.check(state, out)]
        peak = peak_rss_mib()
        summary = wl.summary(state, round_s) if round_s else {}
        inspected = inspect(wl, state, out) if inspect else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        rounds = {f"round:{i}" for i in range(len(traced_s))}
        values = tracing.per_layer(tracer.spans, {f"setup:{i}" for i in range(SETUP_REPEATS)}, rounds)
        base = statistics.median(round_s) if round_s else float("nan")
        overhead = statistics.median(traced_s) - base if traced_s else float("nan")
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / base
        values["trace.spans"] = sum(1 for s in tracer.spans if s[4] in rounds) / max(1, len(rounds))
        path = WORK / "traces" / f"{workload}-seed{seed}.jsonl"
        tracer.write(path)
        summary["trace_file"] = str(path.relative_to(ROOT))
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "round_s": statistics.median(round_s) if round_s else float("nan"),
            "peak_rss_mb": peak,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"result": result, "errors": errors, "summary": summary, "round_s": round_s,
            "ops_per_round": wl.ops_per_round, "inspected": inspected}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure whole rounds for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    limit_threads()
    try:
        import_program()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run the benchmark from a repository checkout", file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for err in report["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    res = report["result"]
    figures = " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
    extra = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in report["summary"].items())
    rounds = " ".join(f"{t:.3f}" for t in report["round_s"])
    print(f"{args.workload} seed={args.seed} rounds=[{rounds}] "
          f"attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    print(f"  {figures}")
    if extra:
        print(f"  {extra}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
