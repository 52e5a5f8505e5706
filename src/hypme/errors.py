"""Exception taxonomy shared across the toolkit, and the work budget.

The CLI maps every HypmeError onto exit 1 (parse, precondition and budget
failures alike); exit 2 is not an exception but a written report whose
mathematical check failed.  One `Budget` bounds the work of a run, counted
in group elements (charged per BFS level, so each element a BFS reaches is
charged once; a coupling runs one BFS per side and every check reads it),
cosets defined by coset enumeration (dead ones included), identity-check
cases, candidate vertices of the fat-cycle search, the 64-bit words of
expanded growth volumes (condition (5), a ball's vertex-cap check), the
working bits of each exp_power bracket ("bracket bits": exp(373248) needs
538k of them), and cell blocks.  The APSP BFS charges ceil(n ceil(n/64)/64)
blocks (one per 64 bitset words) per level: ecc(0) levels before its
matrix is allocated, then each later level.  The exact delta scans charge
ceil(cells/64): n^2 cells per thin-triangle table, 2n|G(a,b)| per row, n^3
+ 2n sum |G(a,b)| per c-major pass, i+1 per four-point row i (from 0), n^2
for the four-point witness row, 3n + |G(a,b)| |G(a,c) u G(b,c)| per
sampled triple.  On a 2-core Xeon (CPython 3.11, numpy 2.4) the scans ran
at 0.6M-1.7M cell blocks a second, the APSP BFS at 0.4M-0.6M (n >= 364):
the default budget stops a scan in 6-17 s and the BFS in 17-25 s.
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
