"""Error types shared across the library.

Every domain error raised by polycf subclasses PolycfError, so callers (and
the command line tool) can distinguish domain failures from programming
mistakes.  Parse failures get their own branch because the CLI maps them to a
different exit code.
"""


class PolycfError(Exception):
    """Base class for all polycf domain errors."""


class PolyParseError(PolycfError):
    """Raised when a polynomial expression does not match the grammar."""

    def __init__(self, token, pos, text=""):
        self.token = token
        self.pos = pos
        self.text = text
        super().__init__(f"unexpected token {token!r} at position {pos}")


class InvalidInput(PolycfError):
    """Input outside the documented domain of an operation."""


class DegenerateTerm(PolycfError):
    """A product term r(i) = -1 makes the Euler continued fraction collapse."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"term r({index}) = -1 gives a zero partial denominator")


class ZeroScaler(PolycfError):
    """An equivalence transform scaler c(i) evaluated to zero."""


class NotDivisible(PolycfError):
    """f(x) does not divide f(x-1)h1(x) + f(x+1)h2(x+1)."""


class PoleInFormula(PolycfError):
    """A closed-form denominator vanished at some index."""

    def __init__(self, k, what):
        self.k = k
        super().__init__(f"{what} vanishes at k = {k}")


class NonTelescoping(PolycfError):
    """The summand is outside the telescoping regime."""


class PreconditionViolated(PolycfError):
    """A named precondition of a closed form failed."""


class ZeroCEntry(PolycfError):
    """Matrix-to-CF conversion needs a nonzero lower-left entry."""


class ZeroF(PolycfError):
    """Triangularization needs an eigenvector component F with F(i) != 0."""
