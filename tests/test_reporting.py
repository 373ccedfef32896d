from asep2.qring import LaurentPoly
from asep2.reporting import Report, matrix_is_zero
from asep2.sparse import SparseMatrix


def test_check_reports_first_failure():
    report = Report()
    report.check("holds", [])
    report.check("breaks", [(1, "A0"), (2, "0A")])
    assert report.lines() == ["RELATION holds PASS", "RELATION breaks FAIL (1, 'A0')"]
    assert not report.passed


def test_matrix_is_zero_names_entry_and_residual():
    report = Report()
    matrix_is_zero(report, "zero", SparseMatrix(2, {}))
    matrix_is_zero(report, "nonzero", SparseMatrix(2, {(1, 0): LaurentPoly.q_power(1)}))
    assert report.lines() == ["RELATION zero PASS", "RELATION nonzero FAIL 1 0 1*q^1"]
