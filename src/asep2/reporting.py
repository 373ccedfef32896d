"""Structured pass/fail reports for the exact identity checks.

The check_* operations return a Report rather than a bool so that a
failing identity pinpoints the first offending matrix entry and its
residual polynomial.  The line format is

    RELATION <name> PASS
    RELATION <name> FAIL <row> <col> <residual>

with <row> <col> replaced by a free-form detail string for checks that
have no matrix coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
    passed: bool
    row: int | None = None
    col: int | None = None
    residual: str | None = None
    detail: str | None = None

    def line(self) -> str:
        if self.passed:
            return f"RELATION {self.name} PASS"
        tail = []
        if self.row is not None:
            tail += [str(self.row), str(self.col), str(self.residual)]
        elif self.detail is not None:
            tail.append(self.detail)
        return " ".join(["RELATION", self.name, "FAIL"] + tail)


@dataclass
class Report:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def add_pass(self, name: str) -> None:
        self.results.append(CheckResult(name, True))

    def add_fail(self, name: str, row=None, col=None, residual=None, detail=None):
        self.results.append(CheckResult(name, False, row, col, residual, detail))

    def check(self, name: str, failures) -> None:
        """PASS if `failures` is empty, else FAIL with the first one as detail."""
        if failures:
            self.add_fail(name, detail=str(failures[0]))
        else:
            self.add_pass(name)

    def extend(self, other: "Report") -> None:
        self.results.extend(other.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def render(self) -> str:
        return "\n".join(self.lines())


def matrix_is_zero(report: Report, name: str, op) -> None:
    """Record whether a sparse matrix is identically zero in the ring."""
    if op.is_zero():
        report.add_pass(name)
    else:
        (r, c), v = op.first_entry()
        report.add_fail(name, row=r, col=c, residual=str(v))


def matrices_equal(report: Report, name: str, left, right) -> None:
    matrix_is_zero(report, name, left - right)
