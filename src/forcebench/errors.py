"""Exception types shared across the workbench."""


class ForcebenchError(Exception):
    """Base class for every error raised by the workbench."""


class ImproperFilter(ForcebenchError):
    """The generated filter contains 0 (dually: the ideal contains 1)."""


class ArityMismatch(ForcebenchError):
    """A fiber map is not total on the target atoms."""


class NotRegular(ForcebenchError):
    """An operation requiring an injective complete homomorphism got a non-injective one."""


class ZeroRestriction(ForcebenchError):
    """Restriction below the zero element."""


class MixedAlgebras(ForcebenchError):
    """Names or elements over different algebras were combined."""


class RankExceeded(ForcebenchError):
    """A name exceeds the configured rank bound."""


class NotAntichain(ForcebenchError):
    """The given elements are not pairwise incompatible."""


class EmptyPool(ForcebenchError):
    """A witness was requested from an empty name pool."""


class EmptyFiber(ForcebenchError):
    """A fiber algebra with no atoms (degenerate 0 = 1) in a two-step presentation."""


class NotMaximalAntichain(ForcebenchError):
    """The index family is not a maximal antichain."""


class NonCommuting(ForcebenchError):
    """The triangle of homomorphisms does not commute."""


class FiberNotRegular(ForcebenchError):
    """A per-atom homomorphism family contains a non-regular member."""

    def __init__(self, atom: int):
        self.atom = atom
        super().__init__(f"fiber homomorphism at atom {atom} is not regular")


class InvariantViolation(ForcebenchError):
    """An identity that a construction guarantees failed on its own output."""


class ShapeMismatch(ForcebenchError):
    """Inconsistent shapes in a layered presentation."""


class CommutationFailure(ForcebenchError):
    """i_bg ∘ i_ab != i_ag at the reported stages."""

    def __init__(self, alpha: int, beta: int, gamma: int):
        self.stages = (alpha, beta, gamma)
        super().__init__(f"composition mismatch at stages {alpha} <= {beta} <= {gamma}")


class CoherenceFailure(ForcebenchError):
    """A thread coordinate does not project onto the earlier coordinate."""

    def __init__(self, alpha: int, beta: int):
        self.stages = (alpha, beta)
        super().__init__(f"projection of coordinate {beta} does not match coordinate {alpha}")


class ChainNotDescending(ForcebenchError):
    """The declared chain rises at the reported index."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"chain is not descending at step {index}")


class ChainEscapeViolation(ForcebenchError):
    """The declared support-escape property of a chain failed at the reported index."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"support-escape property violated at step {index}")


class KeyFieldOverflow(ForcebenchError):
    """A decision-diagram node uid or generator bit outgrew its memo-key field."""


class NotPredense(ForcebenchError):
    """A designated set is not predense."""


class NotMaximal(ForcebenchError):
    """A designated antichain is not maximal."""


class NotInCarrier(ForcebenchError):
    """The restriction element is outside the trace carrier."""


class LabelOutOfRange(ForcebenchError):
    """An ordinal-name label does not fit inside the trace's ordinal part."""


class NotEager(ForcebenchError):
    """A quotient was requested on a lazy iteration system."""


class NotAntichainAtStage(ForcebenchError):
    """The thread projections at the requested stage are not an antichain."""

    def __init__(self, stage: int, witness: str = ""):
        self.stage = stage
        msg = f"projections at stage {stage} are not an antichain"
        super().__init__(msg + (f": {witness}" if witness else ""))


class UnknownCommand(ForcebenchError):
    """An unrecognized workbench command."""


class WorkspaceSyntaxError(ForcebenchError):
    """The workspace text failed to parse; carries a line/column location."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class UnresolvedReference(ForcebenchError):
    """A workspace declaration refers to an undeclared object."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unresolved reference: {name!r}")


class ValidationError(ForcebenchError):
    """A declared workspace object failed construction-time validation."""

    def __init__(self, obj: str, reason: str):
        self.obj = obj
        self.reason = reason
        super().__init__(f"{obj}: {reason}")
