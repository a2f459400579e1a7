"""The benchmark's tracer hooks qpbcalc functions by name; a renamed or
deleted hooked function breaks the traced benchmark run, so check here that
every hook still finds its import sites."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_hooks_find_every_name():
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import tracer; "
            "print(json.dumps({'sites': tracer.install(tracer.Tracer()), "
            "'names': tracer.CALL_SPANS + tracer.SCALAR_OPS + tuple("
            "'suite.' + s for s in tracer.SUITE_NAMES)}))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for name in out["names"]:
        assert out["sites"].get(name), name


def test_tracer_memo_names_are_present():
    # memo_sizes reads *_cache dicts by name, so a memo under a new name
    # would leave an empty dict under the old one: every named memo must
    # fill during check all on u1_q
    code = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer, qpbcalc
from qpbcalc import cli
bundle = qpbcalc.build_example("u1_q")
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["check", "all", "--example", "u1_q", "--format", "json"])
print(json.dumps({"sizes": tracer.memo_sizes(bundle),
                  "names": tracer.MEMOS}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for name in out["names"]:
        assert out["sizes"].get(name, 0) > 0, name
