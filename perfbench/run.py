"""Benchmark of the scdenoise package: three workloads, checked outputs, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_qam64 --seed 1 --seconds 30 --trace 0

`--trace 0` times the workload untraced and prints the end-to-end metrics;
`--trace 1` alternates untraced and traced units and prints the per-layer
metrics (see tracer.py). Human-readable lines and a run record come first;
the last line of standard output is the JSON result. The package is imported
from `src/` next to this directory, with BLAS/OpenMP pinned to one thread
before numpy loads.
"""

from __future__ import annotations

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scdenoise  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "symbols_per_s": "1/s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality_err": "1",
}


class Ledger:
    """Operations attempted and failed; a failed check or a raise is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)


def _unit(wl, k: int, ledger: Ledger):
    """Run unit k; returns (output, seconds), or None after recording a raise."""
    t = time.perf_counter()
    try:
        out = wl.unit(k)
    except Exception as exc:  # any raise is a failed operation, reported below
        ledger.check(f"unit {k} raised {type(exc).__name__}: {exc}", False)
        return None
    return out, time.perf_counter() - t


def _check_outputs(wl, first: dict, ledger: Ledger) -> None:
    for k, (_, out) in sorted(first.items()):
        for label, ok in wl.checks(k, out):
            ledger.check(f"variant {k}: {label}", ok)


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def fresh_import_s() -> float:
    """Seconds from starting a fresh interpreter to having the package imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scdenoise"], env=env, check=True)
    return time.perf_counter() - t


def measure(wl, seconds: float, ledger: Ledger):
    """Untraced run: repeated set-up, then units until `seconds` have passed.

    Returns (metrics, record). Every variant runs at least once, and at least
    two units run; units past the first `variants` repeat an earlier input
    and must reproduce its output exactly.
    """
    import_times = [fresh_import_s() for _ in range(SETUP_REPEATS)]
    setup_times, setup_digests = [], set()
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        setup_digests.add(wl.setup())
        setup_times.append(time.perf_counter() - t)
    ledger.check("repeated set-ups identical", len(setup_digests) == 1)

    times, first = [], {}
    start = time.perf_counter()
    i = 0
    while True:
        k = i % wl.variants
        got = _unit(wl, k, ledger)
        if got is None:
            break
        out, dt = got
        times.append(dt)
        if k in first:
            ledger.check(f"variant {k}: repeat reproduces output", wl.digest(out) == first[k][0])
        else:
            first[k] = (wl.digest(out), out)
        i += 1
        if i >= max(wl.variants, 2) and (
            time.perf_counter() - start + statistics.median(times) > seconds
        ):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_outputs(wl, first, ledger)

    record = {"setup_samples": len(setup_times), "unit_samples": len(times),
              "import_s_quartiles": quartiles(import_times),
              "setup_s_quartiles": quartiles(setup_times)}
    if len(first) < wl.variants:
        return None, record
    report = wl.report([first[k][1] for k in range(wl.variants)])
    symbols, steps = wl.work
    unit_s = statistics.median(times)
    record["unit_s_quartiles"] = quartiles(times)
    record["report"] = {name: {"value": v, "unit": u} for name, (v, u) in report.items()}
    metrics = {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "symbols_per_s": symbols / unit_s,
        "steps_per_s": steps / unit_s,
        "peak_rss_mb": rss_mb,
        "quality_err": report[wl.quality][0],
    }
    return metrics, record


def measure_traced(wl, seconds: float, ledger: Ledger):
    """Traced run: pairs of untraced and traced units on the same input until
    `seconds` have passed; the traced output must equal the untraced one."""
    wl.setup()
    spans = tracer.Tracer()
    plain, traced, first = [], [], {}
    start = time.perf_counter()
    i = 0
    while True:
        k = i % wl.variants
        got = _unit(wl, k, ledger)
        if got is None:
            break
        out, dt = got
        with spans.installed():
            got_traced = _unit(wl, k, ledger)
        if got_traced is None:
            break
        plain.append(dt)
        traced.append(got_traced[1])
        digest = wl.digest(out)
        ledger.check(f"variant {k}: traced output equals untraced",
                     wl.digest(got_traced[0]) == digest)
        first.setdefault(k, (digest, out))
        i += 1
        if time.perf_counter() - start + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    _check_outputs(wl, first, ledger)
    record = {"unit_samples": len(plain), "spans": len(spans.spans)}
    if not traced:
        return None, record
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    return spans.metrics(units=len(traced), overhead_frac=overhead), record


def openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's reduced problem sizes")
    args = parser.parse_args(argv)
    if Path(scdenoise.__file__).resolve().parent != SRC / "scdenoise":
        print(f"run.py: scdenoise imported from {scdenoise.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    sizes = (workloads.TINY if args.size == "tiny" else workloads.FULL)[args.workload]
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes)
    ledger = Ledger()
    if args.trace:
        values, record = measure_traced(wl, args.seconds, ledger)
        units = tracer.PER_LAYER_UNITS
    else:
        values, record = measure(wl, args.seconds, ledger)
        units = END_TO_END_UNITS

    run_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "sizes": sizes,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": openblas_version(), "nproc": os.cpu_count(),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        **record,
    }
    metrics = {}
    for name, unit in units.items():
        value = None if values is None else values[name]
        metrics[name] = {"value": value if value is not None and math.isfinite(value) else None,
                         "unit": unit}
    ledger.check("every metric measured and finite",
                 all(m["value"] is not None for m in metrics.values()))

    print(f"error_rate {ledger.failed / ledger.attempted:.6g} ratio "
          f"({ledger.failed}/{ledger.attempted} operations failed)")
    for name, entry in record.get("report", {}).items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    run_record["failures"] = ledger.failures[:20]
    print("run_record " + json.dumps(run_record, default=str))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
