"""Exception hierarchy shared by all dcx modules."""


class DcxError(Exception):
    """Base class for every error raised by dcx."""


class OverlapError(DcxError):
    """An element's input and output face sets intersect."""


class DanglingIndexError(DcxError):
    """A face list references an index outside the previous dimension."""


class AmbiguityError(DcxError):
    """Two distinct isomorphisms were found between certified molecules."""


class BoundaryMismatchError(DcxError):
    """A pasting was requested along boundaries that are not isomorphic."""


class NotRoundError(DcxError):
    """An atom constructor was given a molecule that is not round."""


class NotParallelError(DcxError):
    """An atom constructor was given molecules with mismatched boundaries."""


class IncompatibleAttachmentError(DcxError):
    """A cell attachment does not commute with the face structure."""


class ShapeNotAtomError(DcxError):
    """A cell shape has no greatest element."""


class IdentityViolationError(DcxError):
    """Semi-simplicial face identities fail."""


class LabelMismatchError(DcxError):
    """Two pasting diagrams disagree on the boundary along which they meet."""


class PreconditionError(DcxError):
    """An operation was called outside its stated preconditions."""


class BudgetError(DcxError):
    """An ogposet/1 or ssset/1 document lists more elements than
    DCX_ELEMENT_LIMIT, before it is read (``serialize._check_listed``)."""
