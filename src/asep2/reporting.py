"""Structured pass/fail reports for the exact identity checks.

The check_* operations return a Report rather than a bool so that a
failing identity pinpoints its first counterexample.  The line format is

    RELATION <name> PASS
    RELATION <name> FAIL <detail>

where a matrix identity's detail is `<row> <col> <residual>`: the first
offending entry and its residual polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str | None = None

    def line(self) -> str:
        if self.passed:
            return f"RELATION {self.name} PASS"
        return f"RELATION {self.name} FAIL {self.detail}"


@dataclass
class Report:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def check(self, name: str, failures) -> None:
        """PASS if `failures` is empty, else FAIL with the first one as detail."""
        detail = str(failures[0]) if failures else None
        self.results.append(CheckResult(name, not failures, detail))

    def extend(self, other: "Report") -> None:
        self.results.extend(other.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def render(self) -> str:
        return "\n".join(self.lines())


def matrix_is_zero(report: Report, name: str, op) -> None:
    """Record whether a sparse matrix is identically zero in the ring."""
    if op.is_zero():
        report.check(name, [])
    else:
        (r, c), v = op.first_entry()
        report.check(name, [f"{r} {c} {v}"])


def matrices_equal(report: Report, name: str, left, right) -> None:
    """Record whether left == right; the residual left - right is one pass
    of the sparse term kernel."""
    matrix_is_zero(report, name, left - right)
