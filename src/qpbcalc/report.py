"""Structured pass/fail records for identity suites."""

from __future__ import annotations

import time
from collections import namedtuple

SCHEMA = "qpbcalc.report/1"

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class Witness(namedtuple("Witness", "input expected got ref",
                         defaults=("",))):
    __slots__ = ()

    def to_dict(self):
        return self._asdict()


class CheckReport:
    """Outcome of one identity suite on one example."""

    __slots__ = ("suite", "example", "truncation", "_status", "witnesses",
                 "ref", "notes", "checks", "duration")

    def __init__(self, suite, example, truncation=None, _status=PASS,
                 witnesses=None, ref="", notes=None, checks=0, duration=0.0):
        self.suite, self.example, self._status = suite, example, _status
        self.truncation = {} if truncation is None else truncation
        self.witnesses = [] if witnesses is None else witnesses
        self.notes = [] if notes is None else notes
        self.ref, self.checks, self.duration = ref, checks, duration

    @property
    def status(self) -> str:
        """The verdict.  A report that checked nothing has shown nothing,
        so it is inconclusive rather than a pass."""
        if self._status == PASS and self.checks == 0:
            return INCONCLUSIVE
        return self._status

    def ok(self) -> bool:
        return self.status == PASS

    def record(self, holds: bool, input_, expected, got, ref=""):
        """Count one comparison; on failure store a witness and flip status."""
        self.checks += 1
        if not holds:
            self._status = FAIL
            self.witnesses.append(Witness(str(input_), str(expected),
                                          str(got), ref))

    def mark_inconclusive(self, input_, why, ref=""):
        self.checks += 1
        if self._status != FAIL:
            self._status = INCONCLUSIVE
        self.witnesses.append(Witness(str(input_), "(conclusive data)", why, ref))

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "example": self.example,
            "truncation": self.truncation,
            "status": self.status,
            "checks": self.checks,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "ref": self.ref,
            "notes": list(self.notes),
            "duration": round(self.duration, 6),
        }

    def text_line(self) -> str:
        mark = {PASS: "PASS", FAIL: "FAIL", INCONCLUSIVE: "INCONCLUSIVE"}[self.status]
        extra = ""
        if self.witnesses:
            w = self.witnesses[0]
            extra = f"  [first witness: {w.input} expected {w.expected} got {w.got}]"
        return (f"{mark:12s} {self.suite:12s} {self.example:14s} "
                f"checks={self.checks} t={self.duration:.2f}s{extra}")


class timed:
    """Context manager stamping wall-clock duration onto a report."""

    def __init__(self, report: CheckReport):
        self.report = report

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self.report

    def __exit__(self, *exc):
        self.report.duration = time.perf_counter() - self._t0
        return False
