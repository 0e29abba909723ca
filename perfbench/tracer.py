"""Span tracing of the scdenoise layers, installed from outside the package.

`Tracer.installed()` replaces every public function of each layer module with
a timing wrapper in every scdenoise namespace that binds it (so names imported
into another module are traced where that module looks them up), plus the
`Mlp.forward` / `Mlp.backward` class attributes, and restores all of them on
exit. Spans are kept in memory as (name, start, end, parent, size) tuples;
`size` is the number of symbols (or, for Mlp methods, rows) in the call's
first array argument, so per-symbol costs are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
import types
from collections import defaultdict

import numpy as np

# The layers are the package modules; `cli` only parses arguments on top of
# them and is not timed separately.
LAYERS = ("constellation", "channel", "oracle", "sampler", "score_model",
          "mlp", "codec", "sweep", "metrics")
MLP_METHODS = ("forward", "backward")
SCORE_FNS = ("oracle.mixture_score", "score_model.forward_score")
SAMPLER_SPANS = ("sampler.predictor_step", "sampler.corrector_step",
                 "sampler.denoise_from_level")

# Per-layer metrics in output order: name -> unit. The traced run of every
# workload reports all of them; a layer a workload never calls reads 0.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "oracle.mmse_bound.self_s": "s",
    "oracle.mmse_bound.total_s": "s",
    "oracle.posterior_mean.self_s": "s",
    "oracle.posterior_weights.self_s": "s",
    "oracle.mixture_score.calls": "count",
    "oracle.mixture_score.us_per_symbol": "us",
    "sweep.run_sweep.self_s": "s",
    "constellation.demodulate_hard.self_s": "s",
    "sampler.predictor_step.self_s": "s",
    "sampler.corrector_step.self_s": "s",
    "sampler.denoise_ms_p50": "ms",
    "sampler.denoise_ms_tail": "ms",
    "sampler.score_evals_per_symbol": "evals/symbol",
    "channel.complex_noise.calls": "count",
    "channel.complex_noise.self_s": "s",
    "score_model.dsm_loss.self_s": "s",
    "score_model.forward_score.us_per_symbol": "us",
    "codec.joint_train.self_s": "s",
    "codec.encode.self_s": "s",
    "mlp.forward.us_per_row": "us",
    "mlp.backward.us_per_row": "us",
    "mlp.adam_step.us_per_call": "us",
    "trace.overhead_frac": "ratio",
}


def _first_array(args) -> np.ndarray | None:
    for a in args:
        if isinstance(a, np.ndarray):
            return a
    return None


class Tracer:
    """Collects spans while installed; `metrics()` turns them into per-layer numbers."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, rows: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arr = _first_array(args)
            size = 0 if arr is None else (arr.shape[0] if rows and arr.ndim else arr.size)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, size)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function where its callers look it up; restore on exit."""
        package = importlib.import_module("scdenoise")
        modules = {layer: importlib.import_module(f"scdenoise.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        patched = []  # (owner, attribute, original), restored in reverse order
        try:
            for layer, mod in modules.items():
                for attr in mod.__all__:
                    fn = getattr(mod, attr)
                    if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                        continue
                    wrapper = self._wrap(f"{layer}.{attr}", fn, rows=False)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is fn:
                                patched.append((ns, key, fn))
                                setattr(ns, key, wrapper)
            mlp_cls = modules["mlp"].Mlp
            for meth in MLP_METHODS:
                fn = vars(mlp_cls)[meth]
                patched.append((mlp_cls, meth, fn))
                setattr(mlp_cls, meth, self._wrap(f"mlp.{meth}", fn, rows=True))
            yield self
        finally:
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)

    def metrics(self, units: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics, with counts and seconds given per traced unit."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        size = defaultdict(int)
        samples = []
        denoised = evaluated = 0
        for i, (name, t0, t1, parent, n) in enumerate(spans):
            dur = t1 - t0
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            size[name] += n
            parent_name = spans[parent][0] if parent >= 0 else None
            # A denoising sample is one pc_sample call, or one
            # denoise_from_level call that pc_sample did not make.
            if name == "sampler.pc_sample" or (
                name == "sampler.denoise_from_level" and parent_name != "sampler.pc_sample"
            ):
                samples.append(dur * 1e3)
                denoised += n
            if name in SCORE_FNS and parent_name in SAMPLER_SPANS:
                evaluated += n

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {}
        for name in PER_LAYER_UNITS:
            fn, _, kind = name.rpartition(".")
            if kind != "self_s":
                continue
            if fn in LAYERS:
                out[name] = per(sum(v for k, v in self_s.items() if k.startswith(fn + ".")), units)
            else:
                out[name] = per(self_s[fn], units)
        out["oracle.mmse_bound.total_s"] = per(total["oracle.mmse_bound"], units)
        for name in ("oracle.mixture_score", "channel.complex_noise"):
            out[f"{name}.calls"] = per(calls[name], units)
        for name in SCORE_FNS:
            out[f"{name}.us_per_symbol"] = per(total[name], size[name], 1e6)
        out["sampler.denoise_ms_p50"] = statistics.median(samples) if samples else 0.0
        out["sampler.denoise_ms_tail"] = tail(samples) if samples else 0.0
        out["sampler.score_evals_per_symbol"] = per(evaluated, denoised)
        for meth in MLP_METHODS:
            out[f"mlp.{meth}.us_per_row"] = per(total[f"mlp.{meth}"], size[f"mlp.{meth}"], 1e6)
        out["mlp.adam_step.us_per_call"] = per(total["mlp.adam_step"], calls["mlp.adam_step"], 1e6)
        out["trace.overhead_frac"] = overhead_frac
        return {name: out[name] for name in PER_LAYER_UNITS}


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values) -> float:
    """The highest percentile with at least ten samples beyond it; the median
    when there are too few samples for any of them."""
    n = len(values)
    p = next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0), 50.0)
    return float(np.percentile(values, p))
