"""Work-size guards for the enumeration-heavy operations.

Every guarded stage states what it counts (points, lines, word count,
pair count, ...) and makes one check, before its work starts, refusing
when that count exceeds the budget.  A budget of 0 therefore refuses
everything guarded.  The point enumeration of PG(r, q^2) is metered
here too, and only here, so a larger budget lifts it.

Two fixed ceilings stay apart from the budget, because its units
undercount what they bound: code.WORDS_HARD_CAP (2^24 codewords; the
exhaustive routes meter all q^k words and build one row of n symbols
per projective class) and sss.CLOSURE_CAP (10^6 group elements, each a
tuple held in memory).  A third limit is no work size at all: a
character transform whose sums its integer arithmetic cannot carry
exactly is refused with a BudgetError that says so, whatever the
budget; variety._transform_range owns that range.
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


def check_budget(what: str, needed: int, budget: int | None = None) -> None:
    cap = DEFAULT_BUDGET if budget is None else budget
    if needed > cap:
        raise BudgetError(what, needed, cap)
