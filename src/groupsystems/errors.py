"""Exception hierarchy for the toolkit.

Every domain error carries enough context (a witness) to reproduce the
violation by hand.  Exit-code mapping for the CLI: parse/IO errors are
``ParseError``, invariant violations are everything else below
``DomainError``, and ``BoundExceeded`` is reported separately.
"""


class ToolkitError(Exception):
    pass


class ParseError(ToolkitError):
    pass


class DomainError(ToolkitError):
    pass


class BoundExceeded(ToolkitError):
    pass


def count_text(count: int) -> str:
    """A count for a cap message: in decimal, or, when it is too long for
    `str` (over 4300 digits), as the power of two it reaches."""
    if count.bit_length() <= 4096:
        return str(count)
    return f"at least 2^{count.bit_length() - 1}"


class AxiomViolation(DomainError):
    """A candidate operation table is not a group; `kind` names the axiom."""

    def __init__(self, kind, witness=None):
        self.kind = kind
        self.witness = witness
        super().__init__(f"group axiom violated: {kind} at {witness}")


class NotASubgroup(DomainError):
    pass


class NotNormal(DomainError):
    pass


class NotASubgroupResult(DomainError):
    pass


class PreconditionViolated(DomainError):
    pass


class CodomainMismatch(DomainError):
    pass


class NotSurjective(DomainError):
    pass


class NoExtensionFound(DomainError):
    pass


class NotAGroupSystem(DomainError):
    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"not a group system: {reason} (witness {witness})")


class OutOfWindow(DomainError):
    pass


class NotControllableOnWindow(DomainError):
    pass


class NotAMember(DomainError):
    pass


class WellDefinednessFailure(DomainError):
    pass


class ShapeMismatch(DomainError):
    pass


class RecoveryMismatch(DomainError):
    pass


class UnrealizedTriangle(DomainError):
    pass


class UnrealizedSlice(DomainError):
    pass


class OverlapInconsistency(DomainError):
    pass


class NotNormalFilling(DomainError):
    pass


class NotABlockCode(DomainError):
    pass
