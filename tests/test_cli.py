import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

from qpbcalc.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "src/qpbcalc/data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*argv):
    """A fresh interpreter importing qpbcalc from this checkout."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "torus" in out and "graded" in out


def test_python_m_qpbcalc():
    proc = python("-m", "qpbcalc", "list")
    assert proc.returncode == 0, proc.stderr
    assert "torus" in proc.stdout and "graded" in proc.stdout


def test_import_loads_no_introspection_modules():
    # every run of the CLI is a fresh process that pays for each module
    # imported; counted over a bare interpreter, so what site loads is not
    probe = ("import sys; before = set(sys.modules); import qpbcalc.cli; "
             "print(*sorted(set(sys.modules) - before))")
    proc = python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "qpbcalc.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize",
                        "traceback", "textwrap"}


def test_reduce_chained_relations(capsys):
    code, out, _ = run(capsys, "reduce", "--example", "podles",
                       "delta*alpha")
    assert code == 0
    assert out.strip() == "1 + q*beta*gamma"


def test_reduce_from_file(capsys):
    code, out, _ = run(capsys, "reduce", "--file",
                       str(DATA / "torus.qpb"), "v*u")
    assert code == 0
    assert out.strip() == "L*u*v"


def test_check_single_suite_text(capsys):
    code, out, _ = run(capsys, "check", "tau", "--example", "torus",
                       "--max-word-len", "3")
    assert code == 0
    assert out.startswith("PASS")


def test_check_all_u1(capsys):
    code, out, _ = run(capsys, "check", "all", "--example", "u1_q",
                       "--max-word-len", "3", "--max-degree", "2")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines() if line)


def test_check_json_schema(capsys):
    code, out, _ = run(capsys, "check", "hopf", "--example", "torus",
                       "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert isinstance(reports, list) and reports
    for rep in reports:
        assert rep["schema"] == "qpbcalc.report/1"
        assert set(rep) == {"schema", "suite", "example", "truncation",
                            "status", "checks", "witnesses", "ref", "notes",
                            "duration"}
        assert rep["status"] == "pass"


CARTAN_NOTE = ("the classifying right ideal is reconstructed at truncation "
               "as the kernel of the coinvariant-valued form on basis words")
TAU_NOTE = "faithful flatness of the extension is assumed, not tested"


def test_podles_linalg_suites(capsys):
    # podles suites at their default truncations: those whose verdicts exact
    # elimination decides, tau, whose tau7 reads the coinvariant kernel, and
    # strong, which shares tau's colinearity identities
    want = {
        "atiyah": (2, {"max_word_len": 3}, []),
        "bm": (2, {"degrees": [1, 2], "max_word_len": 3}, []),
        "cartan": (13, {"max_word_len": 3}, [CARTAN_NOTE]),
        "connection": (122, {"max_word_len": 3}, []),
        "tau": (111, {"max_word_len": 3}, [TAU_NOTE]),
        "strong": (25, {"max_n": 3}, []),
    }
    for suite, (checks, truncation, notes) in want.items():
        code, out, _ = run(capsys, "check", suite, "--example", "podles",
                           "--format", "json")
        assert code == 0, suite
        [rep] = json.loads(out)
        got = (rep["status"], rep["checks"], rep["truncation"],
               rep["witnesses"], rep["notes"])
        assert got == ("pass", checks, truncation, [], notes), suite


def test_check_all_report_order(capsys):
    code, out, _ = run(capsys, "check", "all", "--example", "u1_q",
                       "--max-word-len", "2", "--max-degree", "2",
                       "--format", "json")
    assert code == 0
    reports = json.loads(out)
    keys = [(r["suite"], r["example"]) for r in reports]
    assert keys == sorted(keys)  # deterministic ordering


def test_budget_exhaustion_is_inconclusive_per_suite(capsys, monkeypatch):
    # a fresh bundle from the file, so no memo from another test helps
    monkeypatch.setenv("QPBCALC_REDUCE_BUDGET", "3")
    code, out, _ = run(capsys, "check", "all", "--file",
                       str(DATA / "torus.qpb"), "--format", "json")
    assert code == 1
    reports = json.loads(out)
    stuck = [r for r in reports if r["status"] == "inconclusive"]
    assert stuck and all(
        "BudgetExceededError" in r["witnesses"][0]["got"] for r in stuck)
    # the suites that fit the budget still ran and passed
    assert {r["status"] for r in reports} == {"pass", "inconclusive"}
    assert {r["suite"] for r in reports} >= {"hopf", "tau", "graded"}


@pytest.mark.parametrize("budget, word", [("0", "ti*t"), ("1", "ti*ti*t*t")])
def test_budget_exhaustion_while_loading_is_inconclusive(
        capsys, monkeypatch, budget, word):
    # structural validation of a fresh torus runs out of budget before
    # any suite starts: every requested suite reports it
    from qpbcalc import cli, examples

    monkeypatch.setattr(examples, "_CACHE", {})
    monkeypatch.setenv("QPBCALC_REDUCE_BUDGET", budget)
    code, out, err = run(capsys, "check", "all", "--example", "torus",
                         "--format", "json")
    assert code == 1
    assert err == ""
    reports = json.loads(out)
    assert sorted(r["suite"] for r in reports) == sorted(cli.SUITES)
    for r in reports:
        assert r["status"] == "inconclusive" and r["example"] == "torus"
        (w,) = r["witnesses"]
        assert w["got"].startswith("BudgetExceededError")
        assert w["got"].endswith(word)
    code, out, _ = run(capsys, "check", "hopf", "--example", "torus",
                       "--format", "json")
    assert code == 1
    assert [r["suite"] for r in json.loads(out)] == ["hopf"]


@pytest.mark.parametrize("budget", ["8", "12", "20"])
def test_budget_verdict_does_not_depend_on_what_ran_before(
        capsys, monkeypatch, budget):
    # a memo hit is charged the cold rewrite steps of its word, so a suite
    # that fits the budget inside check all fits it alone on a fresh bundle
    from qpbcalc import examples

    monkeypatch.setenv("QPBCALC_REDUCE_BUDGET", budget)

    def statuses(suite):
        monkeypatch.setattr(examples, "_CACHE", {})
        _, out, _ = run(capsys, "check", suite, "--example", "podles",
                        "--format", "json")
        return {r["suite"]: r["status"] for r in json.loads(out)}

    together = statuses("all")
    for suite in ("strong", "oracle", "bm"):
        assert statuses(suite) == {suite: together[suite]}, suite


def test_malformed_budget_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QPBCALC_REDUCE_BUDGET", "abc")
    code, out, err = run(capsys, "check", "all", "--example", "torus")
    assert code == 2
    assert out == ""
    assert "QPBCALC_REDUCE_BUDGET" in err


def test_suite_exception_is_a_failure_report(capsys, monkeypatch):
    from qpbcalc import cli

    def broken(b, n, k):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.SUITES, "hopf", broken)
    code, out, err = run(capsys, "check", "all", "--example", "u1_q",
                         "--max-word-len", "2", "--max-degree", "2",
                         "--format", "json")
    assert code == 1
    reports = {r["suite"]: r for r in json.loads(out)}
    assert reports["hopf"]["status"] == "fail"
    assert reports["hopf"]["witnesses"][0]["got"] == "RuntimeError: boom"
    assert err.startswith("Traceback") and "RuntimeError: boom" in err
    assert reports["tau"]["status"] == "pass"


def test_zero_checks_is_inconclusive(tmp_path, capsys):
    # u1_q without its oracle tables: the oracle suite has nothing to check
    text = (DATA / "u1_q.qpb").read_text()
    f = tmp_path / "no_oracles.qpb"
    f.write_text(text[:text.index("[oracle.sigma]")])
    code, out, _ = run(capsys, "check", "oracle", "--file", str(f),
                       "--format", "json")
    assert code == 1
    (rep,) = json.loads(out)
    assert rep["checks"] == 0 and rep["status"] == "inconclusive"


def test_unknown_suite_exit_2(capsys):
    code, _, err = run(capsys, "check", "bogus", "--example", "torus")
    assert code == 2
    assert "unknown suite" in err


def test_unknown_example_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "check", "tau", "--example", "bogus")
    assert exc.value.code == 2


BRAIDS = [
    ("torus", "du", "dv", "-L^-1*dv(x)du", "-u*dv(x)dt + du*dv(x)t"),
    ("podles", "ep", "alpha",
     "(-1 - q^-2)*beta*ep(x)gamma*alpha + q^-1*delta*ep(x)alpha*alpha"
     " + q^-1*beta*beta*alpha*ep(x)gamma*gamma"
     " + (-q^-1 - q^-3)*beta*beta*gamma*ep(x)gamma*alpha"
     " + q^-2*beta*gamma*delta*ep(x)alpha*alpha",
     "q*alpha*ep(x)t*t"),
]


def test_braid(capsys):
    # the whole output: the raw braiding and its canonical image
    for example, lhs, rhs, raw, canonical in BRAIDS:
        code, out, err = run(capsys, "braid", "--example", example,
                             "--lhs", lhs, "--rhs", rhs)
        assert code == 0 and err == ""
        assert out == (f"sigma({lhs} (x) {rhs}) =\n"
                       f"  raw:       {raw}\n"
                       f"  canonical: {canonical}\n")


def test_table_braiding_json(capsys):
    code, out, _ = run(capsys, "table", "braiding", "--example", "torus",
                       "--degree", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows and all(r["verified"] for r in rows)
    assert all(r["degree"] == 1 for r in rows)
    pairs = {(r["lhs"], r["rhs"]) for r in rows}
    assert ("u", "du") in pairs and ("du", "v") in pairs


def test_table_braiding_csv(capsys):
    code, out, _ = run(capsys, "table", "braiding", "--example", "podles",
                       "--degree", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lhs,rhs,degree,value,verified"
    assert len(lines) == 11  # header + the ten algebra-level entries


def test_table_braiding_every_torus_row_verified(capsys):
    code, out, err = run(capsys, "table", "braiding", "--example", "torus")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("ok ") for line in lines)


def test_empty_braiding_table_exits_1(capsys):
    # crossed_demo's oracle entries are generated tensors, not table rows
    code, out, err = run(capsys, "table", "braiding", "--example",
                         "crossed_demo")
    assert code == 1
    assert out == ""
    assert "no braiding table entries" in err


def test_show_roundtrip(capsys):
    code, out, _ = run(capsys, "show", "--example", "torus")
    assert code == 0
    assert out == (DATA / "torus.qpb").read_text()


def test_failing_check_exit_1(tmp_path, capsys):
    # corrupt an oracle entry in a copy of the torus file
    text = (DATA / "torus.qpb").read_text()
    broken = text.replace("sigma(u, v) = L^-1*tensor(v, u)",
                          "sigma(u, v) = L*tensor(v, u)")
    f = tmp_path / "broken.qpb"
    f.write_text(broken)
    code, out, _ = run(capsys, "check", "oracle", "--file", str(f))
    assert code == 1
    assert "FAIL" in out


SWAPPED = {"tau": (163, {"tau6": 4, "tau5": 18, "tau2": 12, "tau3": 4,
                         "tau4": 4}),
           "strong": (33, {"splitting": 4, "right-colinear": 4,
                           "left-colinear": 4})}
NEGATED = {"tau": (163, {"tau6": 2, "tau1": 2, "tau5": 8, "tau2": 10}),
           "strong": (33, {"splitting": 2})}


@pytest.mark.parametrize("row, pinned", [("t = tensor(u, ui)", SWAPPED),
                                         ("t = -tensor(ui, u)", NEGATED)])
@pytest.mark.parametrize("suite", ["tau", "strong"])
def test_wrong_translation_row_fails(tmp_path, capsys, row, pinned, suite):
    # a wrong row of torus's translation table, which the strong connection
    # reuses: both suites fail with witnesses naming the broken identities
    text = (DATA / "torus.qpb").read_text()
    assert text.count("\nt = tensor(ui, u)\n") == 1
    f = tmp_path / "mutant.qpb"
    f.write_text(text.replace("\nt = tensor(ui, u)\n", f"\n{row}\n"))
    code, out, _ = run(capsys, "check", suite, "--file", str(f),
                       "--format", "json")
    (rep,) = json.loads(out)
    checks, witnesses = pinned[suite]
    assert code == 1 and rep["status"] == "fail"
    assert rep["checks"] == checks
    assert collections.Counter(
        w["input"].split("(")[0] for w in rep["witnesses"]) == witnesses


# the first witness of each suite that rejects the wrong du row below
WRONG_DU_ROW = {"complete": "raction(du,v)", "vertical": "diagram(du)",
                "connection": "section(('dt',))", "oracle": "sigma(du,u)",
                "atiyah": "ker pi_v = hor1", "graded": "TauBul1(dt)"}


def test_wrong_letter_coaction_row_fails(tmp_path, capsys):
    # a wrong row of torus's extended coaction still parses; every suite
    # that reads the row fails with a witness naming a broken identity
    text = (DATA / "torus.qpb").read_text()
    row = "delta du = tensor(u, dt) + tensor(du, t)\n"
    assert text.count(row) == 1
    f = tmp_path / "mutant.qpb"
    f.write_text(text.replace(row, row[:-1] + " + tensor(u*u, dt)\n"))
    code, out, _ = run(capsys, "check", "all", "--file", str(f),
                       "--format", "json")
    reports = json.loads(out)
    failed = {r["suite"]: r for r in reports if r["status"] != "pass"}
    assert code == 1
    assert {s: r["witnesses"][0]["input"] for s, r in failed.items()} == \
        WRONG_DU_ROW
    assert all(r["status"] == "fail" for r in failed.values())
    complete = [w["input"] for w in failed["complete"]["witnesses"]]
    assert len(complete) == 8 and "coassoc(du)" in complete


def test_report_schema_golden_file():
    import pathlib

    from qpbcalc.examples import build_example

    rep = build_example("u1_q").ca.H.verify_hopf_axioms(2, "u1_q")
    d = rep.to_dict()
    d["duration"] = 0.0
    golden = json.loads((pathlib.Path(__file__).parent
                         / "golden_report.json").read_text())
    assert d == golden


@pytest.mark.parametrize("name", ["u1_q", "torus", "classical_t2",
                                  "crossed_demo"])
def test_check_all_matches_frozen_reports_twice(capsys, name):
    # the second run reads every memo the first one filled, so a sum
    # accumulated into a shared memoised value shows up as a changed report;
    # the file, parsed afresh, must give the same reports as the example
    fields = ("status", "checks", "truncation", "witnesses", "notes")
    frozen = json.loads((ROOT / "perfbench/expected.json").read_text())
    want = [{f: r[f] for f in fields} for r in frozen[f"{name}:all"]]
    for source in (("--example", name), ("--example", name),
                   ("--file", str(DATA / f"{name}.qpb"))):
        code, out, _ = run(capsys, "check", "all", *source,
                           "--format", "json")
        assert code == 0
        assert [{f: r[f] for f in fields} for r in json.loads(out)] == want


def test_podles_check_all_matches_frozen_report(capsys):
    # podles_check_all.json holds the podles reports of `check all` as the
    # other bundles' are held in perfbench/expected.json; the example and
    # the file, parsed afresh, must both give them
    fields = ("status", "checks", "truncation", "witnesses", "notes")
    want = json.loads((ROOT / "tests/podles_check_all.json").read_text())
    for source in (("--example", "podles"),
                   ("--file", str(DATA / "podles.qpb"))):
        code, out, _ = run(capsys, "check", "all", *source,
                           "--format", "json")
        assert code == 0
        assert [{f: r[f] for f in fields} for r in json.loads(out)] == want
