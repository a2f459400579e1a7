"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/selftest.py            # about 3 minutes
    python3 -m pytest -q perfbench/selftest.py -k "not seeds"   # seconds

Run from the root of a qpbcalc checkout. The file is not named test_*.py,
so the package's own test run does not collect it.
"""

import copy
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_frozen_table_is_all_pass(expected):
    assert set(expected) == {f"{b}:{s}" for procs in run.WORKLOADS.values()
                             for b, s in procs}
    for reports in expected.values():
        for rep in reports:
            assert rep["status"] == "pass" and rep["checks"] > 0
            assert "duration" not in rep


def test_unchanged_reports_score_clean(expected):
    want = expected["u1_q:all"]
    got = copy.deepcopy(want)
    for rep in got:
        rep["duration"] = 12.5
    assert run.score(want, got) == (len(want), 0)


@pytest.mark.parametrize("field,value", [
    ("status", "fail"),
    ("checks", 3),
    ("truncation", {"max_word_len": 2}),
    ("witnesses", [{"input": "x", "expected": "1", "got": "2", "ref": ""}]),
    ("notes", ["changed"]),
])
def test_one_mutated_report_is_one_failed_operation(expected, field, value):
    want = expected["torus:all"]
    got = copy.deepcopy(want)
    got[5][field] = value
    assert run.score(want, got) == (len(want), 1)


def test_missing_and_unexpected_reports_fail(expected):
    want = expected["crossed_demo:all"]
    assert run.score(want, want[1:]) == (len(want), 1)
    assert run.score(want, []) == (len(want), len(want))
    extra = dict(want[0], suite="bogus")
    assert run.score(want, want + [extra]) == (len(want) + 1, 1)


def test_self_time_of_nested_spans():
    now = [0.0]

    def work(dt):
        now[0] += dt

    class Operand:
        def __init__(self, unit_den):
            self.unit_den = unit_den

    tr = tracer.Tracer(clock=lambda: now[0])

    def add(a, b):
        work(0.5)
        return a

    add = tr.aggregate("scalars.add", add, rational="rational")

    def inner(b):
        work(2.0)
        add(Operand(True), b)
        work(1.0)

    inner = tr.span("inner", inner)

    def outer():
        work(1.0)
        inner(Operand(True))
        inner(Operand(False))
        work(3.0)

    tr.span("outer", outer)()
    totals = tr.totals()
    assert totals["outer"] == {"calls": 1, "self_s": 4.0, "total_s": 11.0}
    assert totals["inner"] == {"calls": 2, "self_s": 6.0, "total_s": 7.0}
    assert totals["scalars.add"] == {"calls": 2, "self_s": 1.0,
                                     "total_s": 1.0}
    assert tr.counters["rational"] == 1
    names = [tr.names[i] for i in tr.name_index]
    outer_id = tr.span_id[names.index("outer")]
    assert tr.parent_id[names.index("outer")] == 0
    assert [p for p, n in zip(tr.parent_id, names)
            if n == "inner"] == [outer_id, outer_id]


def test_wrappers_cover_every_import_site():
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import tracer; "
            "print(json.dumps(tracer.install(tracer.Tracer())))")
    out = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), HERE],
        check=True, capture_output=True, text=True).stdout
    sites = json.loads(out)
    for mod in ("linalg", "calculus", "qpb", "comodule"):
        assert f"qpbcalc.{mod}.kernel" in sites["linalg.kernel"]
    for mod in ("linalg", "calculus", "qpb"):
        assert f"qpbcalc.{mod}.rref" in sites["linalg.rref"]
    for mod in ("braidext", "cli", "examples"):
        assert f"qpbcalc.{mod}.sigma_bullet" in sites["braidext.sigma_bullet"]
    for name, attrs in (("scalars.mul", ("__mul__", "__rmul__")),
                        ("scalars.add", ("__add__", "__radd__"))):
        assert sites[name] == [f"qpbcalc.scalars.Scalar.{a}" for a in attrs]
    for suite in tracer.SUITE_NAMES:
        assert sites[f"suite.{suite}"] == [
            f"qpbcalc.cli.SUITES[{suite!r}]"]
    for name in tracer.CALL_SPANS + tracer.SCALAR_OPS:
        assert sites[name], name


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == tracer.per_layer_spec()


def test_refuses_to_run_without_sources():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "small-bundles", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_child_stopped_for_probes_runs_clean(expected, monkeypatch):
    """Stops for probes neither lose the child's output nor count in its
    times, and the child's speed is the reference over the mean probe."""
    monkeypatch.setattr(run, "PROBE_EVERY_S", 0.05)
    probes = []

    def probe():
        time.sleep(0.02)
        probes.append(0.02)
        return 0.02

    runner = run.Runner(os.path.join(ROOT, "src"), run.child_env(1),
                        expected, run._now() + 120, probe)
    t0 = run._now()
    child = runner.spawn("torus", "all")
    elapsed = run._now() - t0
    assert child.exit_code == 0
    assert run.score(expected["torus:all"], child.payload["reports"]) == (
        len(expected["torus:all"]), 0)
    stops = len(probes) - 3  # two warm-up probes and the one after
    assert stops >= 3
    assert child.wall_s < elapsed - stops * 0.02
    assert 0 < child.setup_s < child.wall_s
    assert child.speed == pytest.approx(run.PROBE_REF_S / 0.02)


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=180)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_seeds_repeat_every_count(workload):
    a, b = _traced(workload, 1), _traced(workload, 2)
    assert a["correct"] and b["correct"]
    counts = {k for k, m in a["metrics"].items() if m["unit"] == "count"}
    assert {k for k in counts if k.endswith(".calls")}
    assert ({k: a["metrics"][k] for k in counts}
            == {k: b["metrics"][k] for k in counts})
