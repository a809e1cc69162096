"""Work-size guards for the enumeration-heavy operations.

Every guarded stage states what it counts (points, lines, word count,
pair count, ...) and makes one check_budget call before its work
starts.  A budget of 0 therefore refuses everything guarded.  The point
enumeration of PG(r, q^2) is metered here too, and only here, so a
larger budget lifts it.

Two stages also pass a fixed ceiling, for work the budget's units
undercount: code.WORDS_HARD_CAP (2^24 codewords, one row of n symbols
built per projective class) and sss.CLOSURE_CAP (10^6 group elements,
each a tuple held in memory).  The smaller limit binds, and a ceiling
refuses like the budget, with exit 3, naming itself "whatever the
budget"; a cross-check so refused is a SKIP inside its payload.  A
transform whose sums its integer arithmetic cannot carry exactly is a
separate limit, which variety._transform_range refuses in its own text.
"""

from __future__ import annotations

DEFAULT_BUDGET = 2 ** 26


class BudgetError(RuntimeError):
    def __init__(self, what: str, needed: int, cap: int, why: str | None = None):
        super().__init__(
            f"refusing {what}: {why or f'needs {needed} units, budget is {cap}'}")
        self.what = what
        self.needed = needed
        self.cap = cap


def check_budget(what: str, needed: int, budget: int | None = None,
                 ceiling: int | None = None) -> None:
    cap = DEFAULT_BUDGET if budget is None else budget
    if ceiling is not None and ceiling < cap and needed > ceiling:
        raise BudgetError(what, needed, ceiling, f"needs {needed} units, beyond the fixed "
                                                 f"ceiling of {ceiling}, whatever the budget")
    if needed > cap:
        raise BudgetError(what, needed, cap)
