"""The benchmark's own tests: tiny smoke runs, ledger arithmetic, checks.

Run from the repository root with ``python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import e2e_checks  # noqa: E402
import e2e_workloads  # noqa: E402
from e2e_ledger import (  # noqa: E402
    INPUT_SPAN,
    Ledger,
    self_times,
    sweep_name,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SECONDS = 0.6


def test_spec_workloads_exist():
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(e2e_workloads.WORKLOADS)
    assert set(e2e_workloads.TINY_WORKLOADS) == set(e2e_workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(e2e_workloads.TINY_WORKLOADS))
def test_smoke_untraced(name):
    before = e2e_workloads._children()
    outcome = e2e_workloads.run(
        e2e_workloads.TINY_WORKLOADS[name], seed=3, seconds=SECONDS,
        trace=False,
    )
    # No pool worker or resource tracker outlives the run.
    assert e2e_workloads._children() <= before
    assert outcome.problems == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    assert {n: u for n, (_, u) in outcome.metrics.items()} == END_TO_END
    assert all(value > 0 for value, _ in outcome.metrics.values())


@pytest.mark.parametrize("name", list(e2e_workloads.TINY_WORKLOADS))
def test_smoke_traced_ledger_adds_up(name):
    outcome = e2e_workloads.run(
        e2e_workloads.TINY_WORKLOADS[name], seed=4, seconds=2 * SECONDS,
        trace=True,
    )
    assert outcome.problems == []
    assert {n: u for n, (_, u) in outcome.metrics.items()} == PER_LAYER
    ledger = outcome.ledger
    windows = outcome.windows
    times = self_times(ledger.spans, windows)
    assert times.attributed + times.unattributed == pytest.approx(
        times.wall, rel=1e-9, abs=1e-9
    )
    assert 0 <= outcome.metrics["trace.unattributed_frac"][0] < 0.05
    pool_layers = [n for n in outcome.metrics if n.startswith("service.pool.")]
    cdc_layers = [n for n in outcome.metrics if n.startswith("cdc.")]
    pooled = name == "hot-pool-1k"
    churned = name == "cdc-churn-1k"
    assert (outcome.metrics["share.service.pool"][0] > 0) == pooled
    assert any(outcome.metrics[n][0] for n in pool_layers) == pooled
    assert any(outcome.metrics[n][0] for n in cdc_layers) == churned


def _span(ledger, name, children=(), request=False):
    span = ledger.begin(name, request=request)
    for child in children:
        child(ledger)
    ledger.end(span)


def test_self_times_identity_on_nested_spans():
    import threading
    import time

    ledger = Ledger()
    thread = threading.get_ident()
    start = time.perf_counter()
    for _ in range(3):
        _span(
            ledger, "client",
            [
                lambda l: _span(l, "service.server", [
                    lambda l: _span(l, "optimizer", [
                        lambda l: _span(l, sweep_name(0)),
                        lambda l: _span(l, sweep_name(1)),
                    ]),
                    lambda l: _span(l, "runtime.gc"),
                ]),
            ],
            request=True,
        )
        _span(ledger, INPUT_SPAN, [lambda l: _span(l, "runtime.gc")])
    end = time.perf_counter()
    times = self_times(ledger.spans, {thread: (start, end)})
    assert times.attributed + times.unattributed == pytest.approx(
        times.wall, rel=1e-9, abs=1e-12
    )
    assert set(times.layers) == {
        "client", "service.server", "optimizer", "core.filtertree.sweep",
        "runtime.gc",
    }
    assert set(times.shard_sweeps) == {0, 1}
    inputs = sum(
        s[3] - s[2] for s in ledger.spans if s[1] == INPUT_SPAN
    )
    assert times.wall == pytest.approx(end - start - inputs)
    assert {s[5] for s in ledger.spans if s[1] == "optimizer"} == {1, 2, 3}


def test_uninstall_restores_instance_and_class_attributes():
    from repro.core.filtertree import QueryProbe

    class Thing:
        def work(self):
            return 7

    thing = Thing()
    original = QueryProbe.cached_of
    ledger = Ledger()
    ledger.wrap(thing, "work", "layer")
    ledger.wrap(QueryProbe, "cached_of", "probe", static=True)
    ledger.wrap(thing, "work", "layer")  # already wrapped: left alone
    assert thing.work() == 7
    assert [s[1] for s in ledger.spans] == ["layer"]
    ledger.uninstall()
    assert "work" not in vars(thing)
    assert QueryProbe.cached_of == original


def test_plan_check_fails_on_corrupted_reference():
    served = {"q1": (("mv1",), 10.0), "q2": ((), 99.5)}
    assert e2e_checks.plan_mismatches(served, dict(served)) == []
    for corrupted in (
        {"q1": (("mv1",), 10.5)},
        {"q1": (("mv2",), 10.0)},
        {"q2": (("mv1",), 99.5)},
        {"q3": ((), 1.0)},
    ):
        assert e2e_checks.plan_mismatches(served, corrupted)


def test_plan_check_against_real_reference_and_corruption():
    workload = e2e_workloads.TINY_WORKLOADS["cold-1k"]
    inputs = workload.inputs(5)
    system = workload.setup(inputs)
    try:
        workload.loop(system, inputs, 0.3)
        assert workload.check(system, inputs) == []
        sql = next(s for s in inputs["order"] if s in inputs["plans"])
        views, cost = inputs["plans"][sql]
        inputs["plans"][sql] = (views, cost * 1.5 + 1.0)
        assert workload.check(system, inputs)
    finally:
        workload.close(system)


def test_plan_check_fails_on_corrupted_stored_template():
    # The server replays compensation templates stored per (view context,
    # query shape); the reference shares the contexts, so it must not
    # replay them, or a wrong template would pass on both sides.
    from repro.core import matching

    workload = e2e_workloads.TINY_WORKLOADS["cold-1k"]
    inputs = workload.inputs(5)
    system = workload.setup(inputs)
    try:
        workload.loop(system, inputs, 0.3)
        assert workload.check(system, inputs) == []
        rewritten = [
            sql for sql in inputs["order"]
            if inputs["plans"].get(sql, ((),))[0]
        ]
        assert rewritten
        corrupted = 0
        for key, template in list(matching._TEMPLATE_CACHE.items()):
            if template.kind == matching._TPL_SUCCESS:
                matching._TEMPLATE_CACHE[key] = dataclasses.replace(
                    template, kind=matching._TPL_REJECT_PRE,
                    reject_reason=matching.RejectReason.RANGE,
                    reject_detail="corrupted",
                )
                corrupted += 1
        assert corrupted
        inputs["order"][:] = rewritten
        inputs["plans"].clear()
        for sql in rewritten:
            served = system["server"].rewrite(sql)
            inputs["plans"][sql] = (
                tuple(served.view_names), served.result.cost
            )
        assert workload.check(system, inputs)
    finally:
        matching.clear_template_cache()
        workload.close(system)


def test_stored_view_check_fails_on_corrupted_view():
    workload = e2e_workloads.TINY_WORKLOADS["cdc-churn-1k"]
    inputs = workload.inputs(6)
    system = workload.setup(inputs)
    try:
        workload.loop(system, inputs, 0.3)
        assert workload.check(system, inputs) == []
        database = system["database"]
        name = next(
            n for n, _ in inputs["definitions"] if database.relation(n).rows
        )
        rows = database.relation(name).rows
        group, total, count = rows[0]
        rows[0] = (group, total + 1.0, count)
        problems = workload.check(system, inputs)
        assert len(problems) == 1 and name in problems[0]
    finally:
        workload.close(system)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / HERE.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {"PATH": "/usr/bin:/bin"}
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cold-1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
