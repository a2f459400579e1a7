"""Command-line front end: suite orchestration, tables, reduction."""

from __future__ import annotations

import argparse
import json
import sys

from .braidext import (
    GradedBalancedTensor,
    graded_identity_suite,
    raw_pair,
    sigma_bullet,
)
from .calculus import cartan_maurer_equation_check, max_prolongation_degree2
from .comodule import tau_identity_suite
from .examples import (
    EXAMPLE_NAMES,
    build_example,
    crossed_structure_check,
    oracle_crosscheck,
)
from .exprs import ExprError, eval_form
from .fileformat import ParseError, parse, serialize
from .ncalg import BudgetExceededError, reduce_budget
from .report import CheckReport


DEFAULT_WORD_LEN = {"torus": 4, "podles": 3, "u1_q": 4,
                    "classical_t2": 3, "crossed_demo": 3}


def _suite_registry():
    def confluence(b, n, k):
        return [b.ca.A.confluence_check(max(4, n), b.name),
                b.ca.H.base.confluence_check(max(4, n), b.name)]

    def hopf(b, n, k):
        return [b.ca.H.verify_hopf_axioms(min(n, 4), b.name)]

    def comodule(b, n, k):
        return [b.ca.validate(min(n, 3), b.name)]

    def calculus(b, n, k):
        reps = [b.omega_A.calculus_check(min(n, 3), b.name)]
        if b.omega_H is not b.omega_A:
            reps.append(b.omega_H.calculus_check(min(n, 3), b.name))
        return reps

    def cartan(b, n, k):
        return [cartan_maurer_equation_check(b.omega_H, n, b.name)]

    def prolong(b, n, k):
        return [max_prolongation_degree2(b.omega_A, min(n, 3), b.name)]

    def tau(b, n, k):
        return [tau_identity_suite(b.ca, b.td, n, b.name)]

    def complete(b, n, k):
        return [b.cc.completeness_check(min(n, 3), b.name)]

    def atiyah(b, n, k):
        return [b.cc.atiyah_check(n, b.name)]

    def bm(b, n, k):
        return [b.cc.bm_check(n, example=b.name)]

    def vertical(b, n, k):
        return [b.cc.vertical_check(min(n, 3), b.name)]

    def connection(b, n, k):
        return [b.cc.connection_check(b.connection, n, b.name)]

    def strong(b, n, k):
        if b.ell is None:
            return []
        return [b.cc.strong_connection_check(b.ell, n, b.name)]

    def graded(b, n, k):
        return [graded_identity_suite(b.cc, k, b.name)]

    def oracle(b, n, k):
        return [oracle_crosscheck(b, b.name)]

    def crossed(b, n, k):
        if b.crossed is None:
            return []
        return [crossed_structure_check(b, min(n, 3), b.name)]

    return {
        "confluence": confluence, "hopf": hopf, "comodule": comodule,
        "calculus": calculus, "cartan": cartan, "prolong": prolong,
        "tau": tau, "complete": complete, "atiyah": atiyah, "bm": bm,
        "vertical": vertical, "connection": connection, "strong": strong,
        "graded": graded, "oracle": oracle, "crossed": crossed,
    }


SUITES = _suite_registry()


def _load_bundle(args):
    if getattr(args, "file", None):
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                return parse(fh.read())
        except OSError as e:
            raise ParseError(f"cannot read {args.file}: {e}")
    name = getattr(args, "example", None)
    if not name:
        raise ParseError("need --example or --file")
    return build_example(name)


def _emit_reports(reports, fmt):
    reports.sort(key=lambda r: (r.suite, r.example))
    if fmt == "json":
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        for r in reports:
            print(r.text_line())
    return 0 if all(r.status == "pass" for r in reports) else 1


def cmd_check(args):
    if args.suite == "all":
        names = list(SUITES)
    else:
        if args.suite not in SUITES:
            print(f"unknown suite {args.suite!r}; available: "
                  f"{', '.join(SUITES)}", file=sys.stderr)
            return 2
        names = [args.suite]
    try:
        bundle = _load_bundle(args)
    except BudgetExceededError as e:
        # structural validation ran out of budget: no suite can run
        example = args.example or args.file
        return _emit_reports([_budget_report(s, example, e) for s in names],
                             args.format)
    n = args.max_word_len or DEFAULT_WORD_LEN.get(bundle.name, 4)
    k = args.max_degree or 3
    reports = []
    for s in names:
        reports.extend(_run_suite(s, bundle, n, k))
    return _emit_reports(reports, args.format)


def _budget_report(name, example, error):
    rep = CheckReport(suite=name, example=example)
    rep.mark_inconclusive(name, f"BudgetExceededError: {error}",
                          ref="raise QPBCALC_REDUCE_BUDGET")
    return rep


def _run_suite(name, bundle, n, k):
    """One suite's reports; a suite that raises yields one report saying
    so, and the suites after it still run."""
    try:
        return SUITES[name](bundle, n, k)
    except BudgetExceededError as e:
        return [_budget_report(name, bundle.name, e)]
    except Exception as e:  # a crash in one suite is that suite's failure
        import traceback

        traceback.print_exc()
        rep = CheckReport(suite=name, example=bundle.name)
        rep.record(False, name, "no exception", f"{type(e).__name__}: {e}")
    return [rep]


def cmd_reduce(args):
    bundle = _load_bundle(args)
    try:
        el = eval_form(args.expr, bundle.params, bundle.omega_A)
    except ExprError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(el)
    return 0


def cmd_braid(args):
    bundle = _load_bundle(args)
    cc = bundle.cc
    try:
        x = eval_form(args.lhs, bundle.params, cc.omega_A)
        y = eval_form(args.rhs, bundle.params, cc.omega_A)
    except ExprError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    got = sigma_bullet(cc, raw_pair(cc, x, y))
    print(f"sigma({args.lhs} (x) {args.rhs}) =")
    print(f"  raw:       {got}")
    print(f"  canonical: {GradedBalancedTensor(cc, raw=got).canonical}")
    return 0


def cmd_table(args):
    if args.table != "braiding":
        print(f"unknown table {args.table!r}", file=sys.stderr)
        return 2
    bundle = _load_bundle(args)
    cc = bundle.cc
    oa = cc.omega_A
    rows = []
    for entry in bundle.oracles:
        if entry.kind != "sigma" or not isinstance(entry.expected, str):
            continue
        xs, ys = entry.args
        try:
            x = eval_form(xs, bundle.params, oa)
            y = eval_form(ys, bundle.params, oa)
        except ExprError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        deg = (max(x.degrees() or {0}) + max(y.degrees() or {0}))
        if args.degree is not None and deg != args.degree:
            continue
        got = sigma_bullet(cc, raw_pair(cc, x, y))
        from .exprs import eval_tensor

        want = eval_tensor(entry.expected, bundle.params, (oa, oa))
        verified = (GradedBalancedTensor(cc, raw=got)
                    == GradedBalancedTensor(cc, raw=want))
        rows.append({"lhs": xs, "rhs": ys, "degree": deg,
                     "value": entry.expected, "verified": verified})
    if not rows:
        # an empty table verifies nothing, so it must not pass
        print(f"error: no braiding table entries to verify for "
              f"{bundle.name}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    elif args.format == "csv":
        print("lhs,rhs,degree,value,verified")
        for r in rows:
            value = r["value"].replace('"', '""')
            print(f"{r['lhs']},{r['rhs']},{r['degree']},\"{value}\","
                  f"{r['verified']}")
    else:
        width = max((len(r["lhs"] + r["rhs"]) for r in rows), default=8)
        for r in rows:
            mark = "ok " if r["verified"] else "BAD"
            pair = f"({r['lhs']}, {r['rhs']})"
            print(f"{mark} sigma{pair:<{width + 6}} = {r['value']}")
    return 0 if all(r["verified"] for r in rows) else 1


def cmd_list(args):
    print("examples:")
    for name in EXAMPLE_NAMES:
        print(f"  {name}")
    print("suites:")
    for name in SUITES:
        print(f"  {name}")
    return 0


def cmd_show(args):
    bundle = _load_bundle(args)
    print(serialize(bundle), end="")
    return 0


def make_parser():
    p = argparse.ArgumentParser(
        prog="qpbcalc",
        description="exact identity suites for quantum principal bundle "
                    "calculi")
    sub = p.add_subparsers(dest="command", required=True)

    def add_source(sp):
        sp.add_argument("--example", choices=EXAMPLE_NAMES)
        sp.add_argument("--file", help="presentation file")

    pc = sub.add_parser("check", help="run identity suites")
    pc.add_argument("suite", help="suite name or 'all'")
    add_source(pc)
    pc.add_argument("--max-word-len", type=int, default=None)
    pc.add_argument("--max-degree", type=int, default=None)
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.set_defaults(fn=cmd_check)

    pr = sub.add_parser("reduce", help="normal form of an expression")
    add_source(pr)
    pr.add_argument("expr")
    pr.set_defaults(fn=cmd_reduce)

    pb = sub.add_parser("braid", help="evaluate the extended braiding")
    add_source(pb)
    pb.add_argument("--lhs", required=True)
    pb.add_argument("--rhs", required=True)
    pb.set_defaults(fn=cmd_braid)

    pt = sub.add_parser("table", help="emit a generator table")
    pt.add_argument("table", help="table name (braiding)")
    add_source(pt)
    pt.add_argument("--degree", type=int, default=None)
    pt.add_argument("--format", choices=("text", "csv", "json"),
                    default="text")
    pt.set_defaults(fn=cmd_table)

    pl = sub.add_parser("list", help="list examples and suites")
    pl.set_defaults(fn=cmd_list)

    ps = sub.add_parser("show", help="serialize a bundle to the file format")
    add_source(ps)
    ps.set_defaults(fn=cmd_show)
    return p


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        reduce_budget()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # surface unexpected failures with exit 2
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
