"""Shared test helpers."""


def matrix_row(m, r: int) -> dict:
    """Row r of a SparseMatrix as {col: value}, scanning every entry."""
    return {c: v for (rr, c), v in m.sorted_items() if rr == r}
