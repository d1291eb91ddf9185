"""Exception hierarchy shared across the toolchain.

Groups map onto the CLI exit codes, which each group's base class carries
as `exit_code`: parse/safety problems and internal invariant violations
exit 1, semantic input problems 2, resource limits 4.
"""


class BigruleError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


# ---------------------------------------------------------------- exit 1 ----

class ParseError(BigruleError):
    """Malformed input text. Carries a line/column position when known."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}" + (f", col {col}" if col is not None else "") + f": {message}"
        super().__init__(message)


class SafetyError(BigruleError):
    """A rule failed the safety closure."""

    def __init__(self, unsafe_vars, rule_text=""):
        self.unsafe_vars = frozenset(unsafe_vars)
        names = ", ".join(sorted(self.unsafe_vars))
        where = f" in `{rule_text}`" if rule_text else ""
        super().__init__(f"unsafe variables {{{names}}}{where}")


class ArityError(BigruleError):
    """The same predicate is used with two different arities."""


class DanglingReferenceError(ParseError):
    """Reified fact references an undeclared atom or rule id."""


class DuplicateIdError(ParseError):
    """Reified atom or rule id declared twice."""


# ---------------------------------------------------------------- exit 2 ----

class InputSemanticsError(BigruleError):
    """Structurally valid input that a component cannot accept."""

    exit_code = 2


class PartitionError(InputSemanticsError):
    """Graph partition section references an unknown vertex."""


class PrefixShapeError(InputSemanticsError):
    """QBF prefix does not match the shape an encoder requires."""


class ClauseTooWideError(InputSemanticsError):
    """Clause exceeds the width the classic QBF encoding supports."""


class MissingPartitionError(InputSemanticsError):
    """Second-level coloring encoding needs a vertex partition."""


class ReservedPrefixCollisionError(InputSemanticsError):
    """Program already uses a predicate prefix reserved for fresh symbols."""


class UnsupportedAggregateError(InputSemanticsError):
    """Aggregate outside the fragment the oracle evaluates exactly."""


class DivisionByZeroError(InputSemanticsError):
    """Arithmetic evaluation hit a division by zero."""


class NonIntegerArithmeticError(InputSemanticsError):
    """Arithmetic evaluation met a symbol where it needs an integer."""


# ---------------------------------------------------------------- exit 4 ----

class LimitError(BigruleError):
    """A configured resource cap was exceeded."""

    exit_code = 4


class GroundingLimitError(LimitError):
    pass


class TooManyAtomsError(LimitError):
    pass


class TooManyVarsError(LimitError):
    pass


class TooManyVerticesError(LimitError):
    pass


class TupleWidthError(LimitError):
    """Per-clause existential tuple width above the expansion cap."""


class IntegerRangeError(LimitError):
    """An evaluated integer left the 64-bit range."""


# ------------------------------------------------------------- internal ----

class InternalError(BigruleError):
    """Invariant that valid inputs cannot violate. A bug if seen."""


class UncoveredAtomError(InternalError):
    """A body atom's variables fit no bag of a validated decomposition."""


class NoCoveringBagError(InternalError):
    """No bag covers the head variables of a validated decomposition."""


class UnsecurableVariableError(InternalError):
    """No positive atom or arithmetic chain grounds a needed variable."""
