"""Structured pass/fail records for identity suites."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

SCHEMA = "qpbcalc.report/1"

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class Witness:
    input: str
    expected: str
    got: str
    ref: str = ""

    def to_dict(self):
        return {"input": self.input, "expected": self.expected,
                "got": self.got, "ref": self.ref}


@dataclass
class CheckReport:
    """Outcome of one identity suite on one example."""

    suite: str
    example: str
    truncation: dict = field(default_factory=dict)
    _status: str = PASS
    witnesses: list = field(default_factory=list)
    ref: str = ""
    notes: list = field(default_factory=list)
    checks: int = 0
    duration: float = 0.0

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
