import json
import pathlib
import re

import pytest

from qpbcalc.cli import DEFAULT_WORD_LEN, SUITES, main
from qpbcalc.comodule import tau_identity_suite
from qpbcalc.examples import EXAMPLE_NAMES, build_example, oracle_crosscheck
from qpbcalc.fileformat import ParseError, parse, serialize
from qpbcalc.ncalg import NCPoly
from qpbcalc.scalars import Scalar

DATA = pathlib.Path(__file__).resolve().parents[1] / "src/qpbcalc/data"


def read(name):
    return (DATA / f"{name}.qpb").read_text()


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_shipped_files_parse(name):
    bundle = parse(read(name))
    assert bundle.name == name


def test_roundtrip_identity_podles():
    text = read("podles")
    bundle = parse(text)
    again = serialize(bundle)
    assert again == text
    assert serialize(parse(again)) == again


def test_shipped_equals_programmatic():
    for name in EXAMPLE_NAMES:
        assert serialize(build_example(name)) == read(name), name


def test_serialize_keeps_declared_strong_form():
    # the strong-connection form comes from the file, not the bundle name
    text = read("podles").replace("podles", "sphere")
    assert serialize(parse(text)) == text


def _line_of(text, marker):
    return next(i for i, line in enumerate(text.splitlines(), 1)
                if line == marker)


@pytest.mark.parametrize("name, old, new, marker, why", [
    ("torus", "name = torus", "name = torus\ntotal = group",
     "total = group", "unknown [bundle] entry"),
    ("u1_q", "[coaction]", "[generators]\n\n[coaction]", "[generators]",
     "conflicts with total = hopf"),
    ("u1_q", "[coaction]", "[relations]\n\n[coaction]", "[relations]",
     "conflicts with total = hopf"),
    ("u1_q", "[coaction]", "[calculus]\nbasis = dt\ntop = 1\n\n[coaction]",
     "[calculus]", "conflicts with total = hopf"),
    ("crossed_demo", "cocycle = mu", "cocycle = mu\nshift x = 1",
     "shift x = 1", "unknown [crossed] key"),
    ("crossed_demo", "measure ti x = q^-1*x", "measure ti x = q*x",
     "[crossed]", "fails validation"),
    ("crossed_demo", "cocycle = mu\n", "", "[crossed]", "needs 'cocycle'"),
    ("crossed_demo", "measure t x = q*x\n", "", "[crossed]",
     "needs 'measure t x'"),
    ("crossed_demo", "[crossed]", "[connection]\n\n[crossed]",
     "[connection]", "conflicts with a crossed product"),
    ("crossed_demo", "name = crossed_demo",
     "name = crossed_demo\ntotal = hopf", "total = hopf",
     "builds its own total space"),
    ("podles", "form = qbinomial(q)", "form = qbinomial", "form = qbinomial",
     "unknown strong-connection form"),
    ("podles", "form = qbinomial(q)", "form = qbinomial(s)",
     "form = qbinomial(s)", "unknown symbol 's'"),
])
def test_malformed_declarations_have_line_numbers(name, old, new, marker,
                                                  why):
    text = read(name).replace(old, new)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == _line_of(text, marker)
    assert why in str(err.value)


@pytest.mark.parametrize("section", ["hopf.delta", "hopf.epsilon",
                                     "hopf.antipode", "hopf.antipode_inv"])
def test_missing_hopf_entry_is_a_parse_error(section):
    text = read("torus")
    head, _, rest = text.partition(f"[{section}]\n")
    body, _, tail = rest.partition("\n\n")
    kept = [line for line in body.splitlines() if not line.startswith("ti ")]
    assert len(kept) == len(body.splitlines()) - 1
    edited = f"{head}[{section}]\n" + "\n".join(kept) + "\n\n" + tail
    with pytest.raises(ParseError) as err:
        parse(edited)
    assert err.value.line == _line_of(edited, f"[{section}]")
    assert f"[{section}] has no entry for generator ti" in str(err.value)


# -- metamorphic: edits that must not change any report -----------------------

TABLES = ("hopf.delta", "hopf.epsilon", "hopf.antipode", "hopf.antipode_inv",
          "coaction", "translation", "connection", "crossed", "oracle.sigma",
          "oracle.ver")


def _sections(text):
    return re.split(r"(?m)^(?=\[)", text)


def _reverse_sections(text):
    return "".join(reversed(_sections(text)))


def _reverse_table_lines(text):
    out = []
    for block in _sections(text):
        head, _, body = block.partition("\n")
        if head.strip("[]") in TABLES:
            lines = [line for line in body.splitlines() if line.strip()]
            block = head + "\n" + "\n".join(reversed(lines)) + "\n\n"
        out.append(block)
    return "".join(out)


@pytest.mark.parametrize("name, param, renamed", [
    ("torus", "L", "Lam"), ("u1_q", "q", "r"), ("crossed_demo", "q", "r")])
def test_edits_keep_every_report(tmp_path, capsys, name, param, renamed):
    frozen = json.loads((DATA.parents[2] / "perfbench/expected.json")
                        .read_text())
    want = [(r["suite"], r["status"], r["checks"])
            for r in frozen[f"{name}:all"]]
    text = read(name)
    edits = {
        "rename": re.sub(rf"\b{param}\b", renamed, text),
        "reverse-sections": _reverse_sections(text),
        "reverse-tables": _reverse_table_lines(text),
    }
    for edit, edited in edits.items():
        assert edited != text, edit
        f = tmp_path / f"{edit}.qpb"
        f.write_text(edited)
        main(["check", "all", "--file", str(f), "--format", "json"])
        got = [(r["suite"], r["status"], r["checks"])
               for r in json.loads(capsys.readouterr().out)]
        assert got == want, edit


ALL_BUT_GRADED = tuple(s for s in SUITES if s != "graded")


@pytest.mark.parametrize("name, param, value, suites", [
    ("torus", "L", "(3)", ALL_BUT_GRADED),
    ("u1_q", "q", "(3)", ALL_BUT_GRADED),
    ("podles", "q", "(3)", ALL_BUT_GRADED),
    ("podles", "q", "r", ("strong",))],
    ids=["torus-3", "u1_q-3", "podles-3", "podles-r"])
def test_substituted_parameter_keeps_every_report(name, param, value,
                                                  suites):
    # q -> 3 is a ring map, so a bundle that holds over Z[q, 1/q] holds at
    # q = 3, there on the constant path of scalars; q -> r renames.  Both
    # keep every report's status and check count.  graded is left out: at
    # q = 3 podles's q^-1 = 1/3 rides the flat path as a Scalar, and the
    # suite takes about four times as long.  The qbinomial strong
    # connection reads its parameter from the file, so podles's renamed
    # strong report holds too.
    def reports(bundle):
        n = DEFAULT_WORD_LEN[name]
        return [(r.suite, r.status, r.checks)
                for suite in suites for r in SUITES[suite](bundle, n, 3)]

    text = read(name)
    if not value.isidentifier():
        text = re.sub(rf"^{param} = invertible\n", "", text, flags=re.M)
    want = reports(build_example(name))
    assert all(status == "pass" for _, status, _ in want)
    assert reports(parse(re.sub(rf"\b{param}\b", value, text))) == want


def test_parsed_bundle_runs_suites():
    bundle = parse(read("torus"))
    assert tau_identity_suite(bundle.ca, bundle.td, 3, "torus-file").ok()
    assert oracle_crosscheck(bundle).ok()
    assert bundle.cc.connection_check(bundle.connection, 2).ok()


def test_parsed_strong_forms():
    for name in ("torus", "podles", "crossed_demo"):
        bundle = parse(read(name))
        assert bundle.ell is not None
        assert bundle.cc.strong_connection_check(bundle.ell, 2).ok(), name


def test_undeclared_generator_has_line_number():
    text = read("torus")
    broken = text.replace("v*u = L*u*v", "v*w = L*u*v")
    lineno = next(i for i, line in enumerate(text.splitlines(), 1)
                  if "v*u = L*u*v" in line)
    with pytest.raises(ParseError) as err:
        parse(broken)
    assert str(lineno) in str(err.value)


def test_syntax_error_has_line_number():
    text = read("torus")
    broken = text.replace("v*u = L*u*v", "v*u = L*)u*v")
    with pytest.raises(ParseError) as err:
        parse(broken)
    assert "line" in str(err.value)


def test_missing_sections_reported():
    with pytest.raises(ParseError):
        parse("[params]\nq = invertible\n")


def test_invariant_violation_reported():
    # flipping an epsilon entry breaks the counit axiom at validation
    text = read("torus").replace("[hopf.epsilon]\nt = 1", "[hopf.epsilon]\nt = 0")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "validation" in str(err.value)


def test_scalar_literal_grammar():
    # the torus file exercises integers, parameters, powers, and signs;
    # a denominator round-trips too
    from qpbcalc.exprs import eval_scalar
    from qpbcalc.scalars import Parameter

    params = {"q": Parameter("q", True)}
    s = eval_scalar("(q^2 - 1)/(q - 1) - q", params)
    assert s == Scalar.one()
