"""In-memory span tracer that wraps shufflab's layer entry points.

Tracing lives in the benchmark, not in the package: ``Tracer.installed``
replaces each target attribute (the name a caller looks up at call time)
with a wrapper that records a span and restores the original on exit.
Spans stay in memory and are written out once, by ``Tracer.write``.

A layer's self time is the sum over its spans of the span's duration minus
the length of the union of its direct children's intervals, so nested and
overlapping children are never subtracted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterator, Sequence

LAYERS = ("cli", "model", "randmat", "hermite", "advantage", "chisq", "detect", "matrixio")

CountFn = Callable[[tuple, dict], dict]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count(key: str, index: int, name: str) -> CountFn:
    return lambda a, k: {key: int(_arg(a, k, index, name))}


def _one(key: str) -> CountFn:
    return lambda a, k: {key: 1}


def _file_bytes(a: tuple, k: dict) -> dict:
    return {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}


def _phi_evals(a: tuple, k: dict) -> dict:
    patterns, X = _arg(a, k, 0, "patterns"), _arg(a, k, 1, "X")
    return {"evals": len(X) * len(patterns)}


def _pattern_total(a: tuple, k: dict) -> dict:
    params, D = _arg(a, k, 0, "params"), _arg(a, k, 1, "D")
    return {"patterns": comb(params.n * (params.d + params.m) + D, D)}


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module.attr`` belongs to ``layer``.

    ``counter`` maps the call's (args, kwargs) to the counts the span
    carries; it runs after the call returns, so it may read files the call
    wrote.
    """

    module: str
    attr: str
    layer: str
    counter: CountFn | None = None


# Batch-level entry points only, at the names their callers look up.
TARGETS: tuple[Target, ...] = (
    Target("shufflab.cli", "main", "cli"),
    Target("shufflab.chisq", "haar_orthogonal_batch", "randmat", _count("matrices", 1, "size")),
    Target("shufflab.randmat", "stiefel_batch", "randmat", _count("matrices", 2, "size")),
    Target("shufflab.cli", "chisq_m_eq_d_mc", "chisq", _count("samples", 3, "samples")),
    Target("shufflab.cli", "chisq_case1_mc", "chisq", _count("samples", 3, "samples")),
    Target("shufflab.cli", "chisq_case1_closed", "chisq"),
    Target("shufflab.detect", "sample_null_batch", "model", _count("draws", 1, "size")),
    Target("shufflab.detect", "sample_planted_batch", "model", _count("draws", 1, "size")),
    Target("shufflab.model", "sample_planted_batch", "model", _count("draws", 1, "size")),
    Target("shufflab.cli", "sample_planted", "model", _one("draws")),
    Target("shufflab.cli", "run_test", "detect", _count("trials", 2, "trials")),
    Target("shufflab.cli", "separation_report", "detect", _count("trials", 1, "trials")),
    Target("shufflab.advantage", "phi_batch", "hermite", _phi_evals),
    Target("shufflab.advantage", "advantage_sq_with_patterns", "advantage", _pattern_total),
    Target("shufflab.cli", "advantage_sq_with_patterns", "advantage", _pattern_total),
    Target("shufflab.advantage", "advantage_bound_m1", "advantage"),
    Target("shufflab.cli", "write_matrix", "matrixio", _file_bytes),
    Target("shufflab.matrixio", "read_matrix", "matrixio", _file_bytes),
)


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict[str, int] = field(default_factory=dict)


def union_length(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - union_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


class Tracer:
    """Records spans while installed; one ``run`` id per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.extra: dict[tuple[int, str], int] = {}
        self.run = 0
        self._stack: list[int] = []

    def count(self, key: str, n: int) -> None:
        """Add a count that no wrapped call carries (e.g. ``cli.rows``)."""
        self.extra[(self.run, key)] = self.extra.get((self.run, key), 0) + n

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name = f"{target.layer}.{target.attr}"

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            span = Span(sid, name, target.layer, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.run)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if target.counter is not None:
                span.counts = target.counter(args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, run: int, targets: Sequence[Target] = TARGETS) -> Iterator[None]:
        """Wrap every target for the duration of one traced pass."""
        self.run = run
        saved: list[tuple[object, str, object]] = []
        try:
            for t in targets:
                module = importlib.import_module(t.module)
                original = getattr(module, t.attr, None)
                if original is None:
                    print(f"trace: {t.module}.{t.attr} not found, not traced", file=sys.stderr)
                    continue
                saved.append((module, t.attr, original))
                setattr(module, t.attr, self._wrap(original, t))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self, run: int) -> dict[str, float]:
        """Per-layer ``self_s``, ``calls`` and summed counts for one run id.

        Keys are ``<layer>.<count>``; ``advantage.bound_s`` is the inclusive
        time of the exact-bound spans.
        """
        spans = [s for s in self.spans if s.run == run]
        own = self_times(spans)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        out["advantage.bound_s"] = 0.0
        for s in spans:
            out[f"{s.layer}.self_s"] += own[s.sid]
            out[f"{s.layer}.calls"] += 1
            for key, n in s.counts.items():
                out[f"{s.layer}.{key}"] = out.get(f"{s.layer}.{key}", 0) + n
            if s.name == "advantage.advantage_bound_m1":
                out["advantage.bound_s"] += s.end - s.start
        for (r, key), n in self.extra.items():
            if r == run:
                out[key] = out.get(key, 0) + n
        return out

    def write(self, path: os.PathLike, provenance: dict) -> None:
        """Write every recorded span as JSON lines, after a provenance line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"provenance": provenance}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "sid": s.sid, "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "parent": s.parent, "run": s.run, "counts": s.counts,
                }) + "\n")
