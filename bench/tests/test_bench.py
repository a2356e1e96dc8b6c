"""Tests of the benchmark itself: span arithmetic, failure counting, metric names.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(sid, start, end, parent=None, layer="a"):
    return spans.Span(sid, f"{layer}.f", layer, start, end, parent, run=0)


def test_union_length_merges_overlaps_and_clips_to_parent():
    assert spans.union_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert spans.union_length([(1, 2), (1, 2)], 0, 10) == 1
    assert spans.union_length([(-5, -1), (11, 12)], 0, 10) == 0
    assert spans.union_length([], 0, 10) == 0


def test_self_times_subtract_only_direct_children_once():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),    # overlaps span 1
        _span(3, 1.5, 2.0, parent=1),    # grandchild: inside span 1 only
        _span(4, 9.0, 11.0, parent=0),   # runs past the parent's end
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)


def test_tracer_records_nested_spans_counts_and_restores(monkeypatch):
    fake = types.ModuleType("fake_layer_mod")

    def inner(size):
        return size

    def outer(size):
        return fake.inner(size) + 1

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer_mod", fake)
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(ticks))
    targets = (
        spans.Target("fake_layer_mod", "outer", "detect", spans._count("trials", 0, "size")),
        spans.Target("fake_layer_mod", "inner", "model", spans._count("draws", 0, "size")),
        spans.Target("fake_layer_mod", "missing", "model"),
    )
    tracer = spans.Tracer()
    with tracer.installed(run=7, targets=targets):
        assert fake.outer(5) == 6
    assert fake.outer is outer and fake.inner is inner
    totals = tracer.layer_totals(7)
    assert totals["detect.self_s"] == pytest.approx(8.0)
    assert totals["model.self_s"] == pytest.approx(2.0)
    assert totals["detect.trials"] == 5 and totals["model.draws"] == 5
    assert totals["detect.calls"] == 1 and totals["randmat.calls"] == 0
    assert [s.parent for s in tracer.spans] == [None, 0]
    assert {s.run for s in tracer.spans} == {7}


def test_wrong_reference_is_a_counted_failure_not_a_crash():
    rec = workloads.Recorder()
    pooled = {"x": (1.0, 0.01)}
    workloads.check_within(rec, "x", pooled, 1.02)    # z = 2: passes
    workloads.check_within(rec, "x", pooled, 2.0)     # z = -100: fails
    workloads.check_within(rec, "absent", pooled, 1.0)  # raises inside: fails
    assert (rec.attempted, rec.failed) == (3, 2)


def test_nonzero_cli_exit_is_a_counted_failure():
    rec = workloads.Recorder()
    rec.cli(["chisq", "--d", "3"])  # missing required flags: usage exit
    assert (rec.attempted, rec.failed) == (1, 1)


def test_wrong_seed_bound_fails_one_check_in_a_real_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "ADV_REPLICATES", 1)
    monkeypatch.setattr(workloads, "TOY_REPLICATES", 2)
    monkeypatch.setattr(workloads, "ADV_SAMPLES", 200)
    monkeypatch.setattr(workloads, "TOY_SAMPLES", 200)
    # (2, 4) is the true value; (2, 2) is deliberately wrong
    monkeypatch.setattr(workloads, "BOUND_M1_SEED", {(2, 4): 46.033294677734375, (2, 2): -1.0})
    rec = workloads.Recorder()
    out = workloads.advantage_curve(rec, 3, tmp_path)
    assert rec.failed == 1 and rec.failures[0].startswith("bound m1 2,2")
    assert set(out.estimates) == {"advantage n=2", "toy D=3", "toy D=4"}
    assert out.rows == 1 and len(out.digests) == 1


def test_pool_is_the_mean_with_combined_stderr():
    value, se = workloads.pool([(1.0, 0.3), (3.0, 0.4)])
    assert value == 2.0 and se == pytest.approx(0.25)


def test_metric_names_units_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOAD_NAMES]:
        assert NAME.fullmatch(name), name
    for name, (count, secs, _) in run.RATES.items():
        assert {name, count, secs} <= set(run.PER_LAYER)


def test_same_files_names_every_differing_output():
    assert run.same_files({"a.csv": "1"}, {"a.csv": "1"}) == (True, "differs in []")
    ok, detail = run.same_files({"a.csv": "1"}, {"a.csv": "2", "b.csv": "3"})
    assert not ok and detail == "differs in ['a.csv', 'b.csv']"
