"""Exception hierarchy shared by every module.

The CLI maps these onto process exit codes: syntax-level problems (bad spec
strings, bad set literals) are usage errors, semantic problems (invalid
tables, failed operation preconditions) are precondition failures, and a
verified bound that comes back false is a theorem violation.
"""


class AddcombError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AddcombError):
    """Malformed input text (spec string, set literal, Cayley file syntax)."""


class UnknownSpec(ParseError):
    """A semigroup spec string with an unrecognized construction name."""


class ValidationError(AddcombError):
    """A structurally well-formed input that fails semantic validation."""


class NonAssociative(ValidationError):
    """Operation table is not associative; carries a witness triple."""

    def __init__(self, a: int, b: int, c: int, lhs: int, rhs: int):
        self.witness = (a, b, c)
        super().__init__(
            "not associative: (%d+%d)+%d = %d but %d+(%d+%d) = %d"
            % (a, b, c, lhs, a, b, c, rhs)
        )


class IndexOutOfRange(ValidationError):
    """A table entry or set element outside the carrier [0, n)."""


class CarrierTooLarge(ValidationError):
    """Carrier exceeds what the bit-vector set representation supports."""


class EmptySet(ValidationError):
    """An operation that requires a non-empty set received an empty one."""


class PreconditionFailed(AddcombError):
    """An operation's hypotheses do not hold; lists which ones failed."""

    def __init__(self, failed, message=None):
        self.failed = tuple(failed)
        super().__init__(message or "preconditions failed: %s" % ", ".join(self.failed))


class NotUnital(PreconditionFailed):
    def __init__(self, message="semigroup has no identity element"):
        super().__init__(("unital",), message)


class NotGroup(PreconditionFailed):
    def __init__(self, message="semigroup is not a group"):
        super().__init__(("group",), message)


class CandidateInvalid(PreconditionFailed):
    """z is not in the transform candidate set (mX+2Y) minus (X+Y)."""

    def __init__(self, message):
        super().__init__(("candidate",), message)


class EmptyTransform(PreconditionFailed):
    """The transformed set Y' is empty, so the audit has nothing to say."""

    def __init__(self, message="Y' is empty: audit hypotheses do not apply"):
        super().__init__(("nonempty_y_prime",), message)


class BadZ(PreconditionFailed):
    """Localization received a Z that is not an (l-1)-subset of X+Y."""

    def __init__(self, message):
        super().__init__(("valid_z",), message)


class TheoremViolated(AddcombError):
    """A guard that holds by a published theorem came back false: a bug."""
