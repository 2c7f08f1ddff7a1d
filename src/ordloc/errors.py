"""Exception types shared across the package.

Every error carries the offending data as attributes so callers (and the
CLI) can show concrete witnesses instead of just a message.
"""


class OrdlocError(Exception):
    pass


class ValidationError(OrdlocError):
    pass


class NotClosedUnderMeet(ValidationError):
    def __init__(self, a, b):
        self.pair = (a, b)
        super().__init__(f"family not closed under intersection: {a!r} & {b!r}")


class NotClosedUnderJoin(ValidationError):
    def __init__(self, a, b):
        self.pair = (a, b)
        super().__init__(f"family not closed under union: {a!r} | {b!r}")


class MissingBottomOrTop(ValidationError):
    def __init__(self, what):
        self.what = what
        super().__init__(f"family misses {what}")


class NotALattice(ValidationError):
    pass


class NotDistributive(ValidationError):
    pass


class NotAFrameMap(ValidationError):
    pass


class AxiomVFailure(OrdlocError):
    """Strict-mode constructor: the reflexive-transitive closure of the
    relation is not closed under joins."""

    def __init__(self, witness):
        self.witness = witness  # (U, V, J, J): U rel V, not U | J rel V | J
        super().__init__(f"relation not closed under joins, witness {witness}")


class NotAMonad(OrdlocError):
    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"monad law {law} fails at {witness}")


class ConesDoNotPreserveJoins(OrdlocError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"localic cones do not preserve joins, witness {witness}")


class RegularConesRequired(OrdlocError):
    pass


class BottomStep(OrdlocError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"path step {index} is the bottom element")


class NotRelated(OrdlocError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"steps {index} and {index + 1} are not causally related")


class NotASubregion(OrdlocError):
    pass


class NotParallelOrdered(OrdlocError):
    pass


class EmptyRestriction(OrdlocError):
    pass


class PreconditionAxioms(OrdlocError):
    def __init__(self, axiom):
        self.axiom = axiom
        super().__init__(f"required axiom {axiom} does not hold")


class FrameTooLarge(OrdlocError):
    pass


class SlopesUnequal(OrdlocError):
    pass


class ParseError(OrdlocError):
    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{message}" + (f" (at {path})" if path else ""))
