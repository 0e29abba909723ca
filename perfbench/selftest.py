"""Self-test of the benchmark itself, at tiny problem sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
  * each workload, untraced and traced, runs clean and emits exactly the
    metrics BENCHMARK.json lists, each with its unit;
  * a score callable that returns NaN makes operations fail;
  * the traced run restores every name it wrapped.
Exits 0 when all pass.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS threads and puts src/ on the path before numpy loads
import numpy as np  # noqa: E402
import scdenoise  # noqa: E402
from scdenoise import score_model, sweep  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def command_output_matches_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
            what = f"{name} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: correct, {result['failed']}/{result['attempted']} failed")
            expect(got == want, f"{what}: metric names and units match BENCHMARK.json")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{what}: every metric value is a number")


def _nan_score(z, sigma):
    return np.full(np.shape(z), np.nan + 0j)


@contextlib.contextmanager
def replaced(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def nan_score_fails_operations() -> None:
    # Each workload that denoises gets its score callable from a factory in
    # the package; swapping the factory injects a NaN score benchmark-side.
    cases = (("sweep_qam64", sweep, "oracle_score_fn"),
             ("joint_learned", score_model, "model_score_fn"))
    for name, owner, factory in cases:
        wl = workloads.WORKLOADS[name](5, workloads.TINY[name])
        ledger = run.Ledger()
        with replaced(owner, factory, lambda *_: _nan_score):
            run.measure(wl, 0.1, ledger)
        expect(ledger.failed > 0, f"{name}: NaN score gives error_rate "
                                  f"{ledger.failed}/{ledger.attempted} > 0")


def _bindings():
    spaces = [scdenoise] + [getattr(scdenoise, layer) for layer in tracer.LAYERS]
    out = {(ns.__name__, k): v for ns in spaces for k, v in vars(ns).items()}
    mlp_cls = scdenoise.mlp.Mlp
    out.update({("Mlp", m): vars(mlp_cls)[m] for m in tracer.MLP_METHODS})
    return out


def tracing_restores_names() -> None:
    before = _bindings()
    wl = workloads.WORKLOADS["train_score_qam64"](5, workloads.TINY["train_score_qam64"])
    ledger = run.Ledger()
    metrics, _ = run.measure_traced(wl, 0.1, ledger)
    expect(ledger.failed == 0 and metrics["mlp.self_s"] > 0, "traced run records mlp spans")
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    expect(not changed, f"every wrapped name restored ({len(changed)} left wrapped)")


def main() -> int:
    command_output_matches_benchmark_json()
    nan_score_fails_operations()
    tracing_restores_names()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
