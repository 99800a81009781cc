"""Exact linear algebra on sparse integer rows: combinations over
denominators, the rank by fraction-free elimination, and the rank at
which the powers of a square matrix stop falling.  It imports nothing
from the package; ``cancel`` is polled once per pivot column.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional

CancelCallback = Callable[[], bool]


class ComputationCancelled(RuntimeError):
    """A caller-supplied cancellation callback returned True."""


# A sparse matrix row: column index -> nonzero integer entry.
Row = dict[int, int]


def _combine(coefficients: Mapping[int, int], den: int, form_of: Callable) -> tuple[Row, int]:
    """Sum c * form_of(k) / den over ``coefficients``; a form, like the sum,
    is (integer row, denominator), reduced by the gcd of both."""
    forms = [(c, *form_of(k)) for k, c in coefficients.items()]
    common = math.lcm(*[d for _, _, d in forms])
    acc: Row = {}
    for c, row, d in forms:
        if d != common:
            c *= common // d
        for j, v in row.items():
            acc[j] = acc.get(j, 0) + c * v
    den *= common
    g = math.gcd(den, *acc.values())
    return {j: v // g for j, v in acc.items() if v}, den // g


def _rank(rows: list[Row], cancel: Optional[CancelCallback]) -> int:
    """Rank by fraction-free elimination over the integers.

    Each combination of two rows cancels the pivot column with integer
    multipliers, and the new row is divided by the gcd of its entries,
    which keeps the entries small and the rank unchanged.  ``cancel``
    is polled once per pivot column.
    """
    pending = [row for row in rows if row]
    rank = 0
    while pending:
        if cancel is not None and cancel():
            raise ComputationCancelled("rank computation cancelled")
        pivot = pending.pop()
        col = min(pivot)
        p = pivot[col]
        reduced = []
        for row in pending:
            if col in row and len(pivot) == 1:
                # The pivot spans its column alone: clearing it drops the entry.
                row = {j: c for j, c in row.items() if j != col}
            elif col in row:
                a = row[col]
                g = math.gcd(a, p)
                row_factor, pivot_factor = p // g, a // g
                row = {j: row_factor * c for j, c in row.items()} if row_factor != 1 else dict(row)
                for j, c in pivot.items():
                    value = row.get(j, 0) - pivot_factor * c
                    if value:
                        row[j] = value
                    else:
                        del row[j]
                content = math.gcd(*row.values())
                if content > 1:
                    row = {j: c // content for j, c in row.items()}
            if row:
                reduced.append(row)
        pending = reduced
        rank += 1
    return rank


def _stable_rank(rows: list[Row], cancel: Optional[CancelCallback]) -> int:
    """Rank at which the powers of a square integer matrix stop falling.

    The rank of M^k does not increase with k, so once M^(2^i) and
    M^(2^(i+1)) have equal rank it is constant from 2^i on; squaring
    reaches that point in about log2 of the matrix size steps.  The
    rows are those of L * M_f, for L the lcm of the denominators of
    its normal forms: one common scaling, whose powers L^k M_f^k have
    the ranks of M_f^k.  Scaling row by row would not do: it keeps the
    rank of M_f but not of its powers.
    """
    rank = _rank(rows, cancel)
    while 0 < rank < len(rows):
        forms = [(row, 1) for row in rows]
        rows = [_combine(row, 1, forms.__getitem__)[0] for row in rows]
        previous, rank = rank, _rank(rows, cancel)
        if rank == previous:
            break
    return rank
