#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, in a few seconds.

    python3 bench/selftest.py

Runs every workload untraced and traced with every check, compares the
metric names it prints with ``BENCHMARK.json``, and shows the checks are
not vacuous: a dropped report row, one flipped prediction and one
perturbed parameter must each be caught. Finally it runs the benchmark in
a directory without the program's sources, where it must fail without
printing a result. Exits 0 only if every step passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import run

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def drop_row(wl, state, report: str) -> list[str]:
    lines = report.splitlines()
    return wl.check(state, "\n".join(lines[:3] + lines[4:]) + "\n")


def flip_prediction(wl, state, out: dict) -> list[str]:
    from zsl_embed.evaluation import EvalResult

    res = out["results"][0]
    confusion = res.confusion.copy()
    i, j = map(int, np.argwhere(confusion > 0)[0])
    k = (j + 1) % confusion.shape[1]
    confusion[i, j] -= 1
    confusion[i, k] += 1
    n = int(confusion.sum())
    top1 = res.top1 + ((k == i) - (j == i)) / n
    flipped = EvalResult(top1, res.top5, res.per_class_top1, confusion, res.class_ids)
    fresh = {key: v for key, v in state.items() if key != "first"}  # check it as a first round
    return wl.check(fresh, {**out, "results": [flipped, *out["results"][1:]]})


def perturb_parameter(wl, state, out: dict) -> list[str]:
    bias = out["model"].fusion.params["out.b3"]
    bias[0] = np.nextafter(bias[0], np.inf)
    return wl.check(state, out)


MUTATIONS = {
    "small-grid": ("a dropped report row", drop_row),
    "paper-eval": ("one flipped prediction", flip_prediction),
    "paper-train": ("one perturbed parameter", perturb_parameter),
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    run.limit_threads()
    run.import_program()
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            what, mutate = MUTATIONS[name]
            r = run.run(name, seed=1, seconds=0, trace=bool(trace), tiny=True,
                        inspect=None if trace else mutate)
            res = r["result"]
            rounds = 2 if trace else 1
            expect(res["correct"] and not r["errors"], f"{name} trace={trace}: checks pass {r['errors']}")
            expect(res["failed"] == 0 and res["attempted"] == rounds * r["ops_per_round"],
                   f"{name} trace={trace}: {res['attempted']} attempted, {res['failed']} failed")
            printed = set(res["metrics"])
            expect(printed == declared[trace],
                   f"{name} trace={trace}: metrics match BENCHMARK.json {sorted(printed ^ declared[trace])}")
            if not trace:
                expect(bool(r["inspected"]), f"{name}: {what} is caught {r['inspected']}")

    broken = run.WORK / "selftest-no-sources"
    shutil.rmtree(broken, ignore_errors=True)
    shutil.copytree(run.HERE, broken / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", broken)
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "paper-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=broken, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(broken, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without sources: exit {proc.returncode}, no result printed")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
