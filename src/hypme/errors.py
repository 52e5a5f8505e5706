"""Exception taxonomy shared across the toolkit, and the work budget.

The CLI maps every HypmeError onto exit 1 (parse, precondition and budget
failures alike); exit 2 is not an exception but a written report whose
mathematical check failed.  One `Budget` bounds the work of a run.  Its
units, with the cell-block rates, are stated once, in `Budget.UNITS`, which
the --budget help prints.  Group elements are charged per BFS level (a
coupling runs one BFS per side and every check reads it); exp(373248)
needs 538k bracket bits; the APSP BFS charges ecc(0) levels before its
matrix is allocated, then each later level.  The rates were measured on a
2-core Xeon (CPython 3.11, numpy 2.4): the default budget stops a delta
scan in 6-17 s and the APSP BFS in 17-25 s.
"""

DEFAULT_BUDGET = 10_000_000


class HypmeError(Exception):
    pass


class ParseError(HypmeError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PreconditionError(HypmeError):
    pass


class BudgetError(HypmeError):
    pass


class Budget:
    """The work a run may do: `limit` units, of which `spent` are used."""

    UNITS = (
        "group elements (each element a BFS reaches is charged once), cosets defined by coset "
        "enumeration (dead ones included), identity-check cases, cycle-search candidate vertices, "
        "64-bit words of expanded growth volumes (condition (5), the measure bound, a ball's "
        "vertex-cap check), report words (50 per row of group-ball's growth table and entropy "
        "block, radius + 1 rows, charged before the first: C6 to radius 10^6 peaked at 418 MB, "
        "about 400 bytes or 50 words a row), bracket bits (working bits of each exp_power "
        "bracket) and cell blocks: "
        "ceil(n ceil(n/64)/64) per APSP BFS level (64 bitset words a block), 0.4M-0.6M blocks/s "
        "at n >= 364; for the delta kernels, ceil(cells/64) (64 distance cells a block) of n^2 "
        "cells per thin-triangle table, 2n|G(a,b)| per row, n^3 + 2n sum|G(a,b)| per c-major "
        "pass, i+1 per four-point row i (from 0), n^2 for its witness row and "
        "3n + |G(a,b)||G(a,c) u G(b,c)| per sampled triple; 0.6M-1.7M blocks/s"
    )

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.spent = 0

    def charge(self, what: str, amount: int = 1, *, by: str) -> None:
        """Spend `amount` units of `what` for `by`; past the limit, raise BudgetError."""
        if self.spent + amount > self.limit:
            # str() refuses integers of more than 4300 digits
            need = amount if amount < 2**64 else f"at least 2**{amount.bit_length() - 1}"
            raise BudgetError(
                f"{by} needs {need} {what}, over the budget of {self.limit} with "
                f"{self.spent} already spent; raise --budget or HYPME_BUDGET"
            )
        self.spent += amount
