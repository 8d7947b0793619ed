"""Exception types shared across the package.

Every validation failure carries a witness (the concrete elements that break
the law being checked) so reports can re-verify it.

Every error pickles with its type, message and attributes, so one raised in
a worker process reaches its caller unchanged.
"""

import copyreg


class RinglabError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # ``args`` holds the formatted message, not the constructor's
        # arguments, so the copy is made without calling ``__init__``:
        # ``BaseException.__new__`` restores ``args`` and the state restores
        # the attributes
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class NotAbelianGroup(RinglabError):
    def __init__(self, reason, witness=None):
        super().__init__(f"addition table is not an abelian group: {reason}")
        self.reason = reason
        self.witness = witness


class DistributivityViolation(RinglabError):
    def __init__(self, witness):
        super().__init__(f"multiplication does not distribute over addition, witness triple {witness}")
        self.witness = witness


class ShapeMismatch(RinglabError):
    pass


class RingMismatch(RinglabError):
    pass


class TooLarge(RinglabError):
    pass


class InfiniteScalarField(RinglabError):
    pass


class BNotCommutative(RinglabError):
    pass


class CriterionDisagreement(RinglabError):
    """Two computations that a theorem says must agree gave different
    answers on one instance: a defect in ringlab, not in its input."""


class NotAInvariant(RinglabError):
    pass


class NotIdealAssociative(RinglabError):
    pass


class PreconditionUnmet(RinglabError):
    def __init__(self, which):
        super().__init__(f"precondition unmet: {which}")
        self.which = which


class NotDirectSum(RinglabError):
    def __init__(self, witness):
        super().__init__(f"components do not form a direct sum: {witness}")
        self.witness = witness


class FilterViolation(RinglabError):
    def __init__(self, g, h, witness):
        super().__init__(f"component product A_{g}·A_{h} escapes its target, witness {witness}")
        self.g = g
        self.h = h
        self.witness = witness


class ValidationFailure(RinglabError):
    def __init__(self, items):
        super().__init__("validation failed: " + "; ".join(str(i) for i in items))
        self.items = items


class SigmaNotInvolutive(RinglabError):
    pass


class AlphaNotCentralUnit(RinglabError):
    pass


class CoherenceViolation(RinglabError):
    def __init__(self, witness):
        super().__init__(f"coherence violation: {witness}")
        self.witness = witness


class NotAnAction(RinglabError):
    pass


class ParseError(RinglabError):
    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col


class SchemaError(RinglabError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownKind(RinglabError):
    pass

