"""Exception types shared across the package."""


class Sep4Error(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(Sep4Error):
    """Matrix shape and declared party dimensions disagree."""


class NotHermitian(Sep4Error):
    """Asymmetry of the input matrix exceeds the Hermiticity tolerance."""


class NotPositive(Sep4Error):
    """An eigenvalue falls below the positive-semidefiniteness tolerance."""


class EmptySubset(Sep4Error):
    """A party subset that must be nonempty is empty."""


class EigFailure(Sep4Error):
    """The eigensolver failed to converge."""


class AllPartiesTrivial(Sep4Error):
    """Every single-party reduced state has rank one (pure product state)."""


class ZeroVector(Sep4Error):
    """A vector that must be nonzero is zero."""


class NotBipartite(Sep4Error):
    """Operation requires exactly two parties."""


class RankDeficientBasis(Sep4Error):
    """Rows of a subspace basis are not linearly independent."""


class DuplicateIndex(Sep4Error):
    """An index tuple contains repeated entries."""


class UnsupportedSystem(Sep4Error):
    """No Chow form is available for the requested party dimensions."""


class NotBijective(Sep4Error):
    """The supplied index map is not a permutation."""


class ShapeMismatch(Sep4Error):
    """Tuple length or ambient dimension of the arguments disagree."""


class WrongDimension(Sep4Error):
    """Subspace dimension differs from the one the operation requires."""


class DegenerateConfiguration(Sep4Error):
    """No coordinate change certified an exact count of product vectors."""


class NotApplicable(Sep4Error):
    """State does not satisfy the hypotheses of the requested construction."""


class NotSeparableVerdict(Sep4Error):
    """Length bounds are only defined for separable verdicts."""


class DependentVectors(Sep4Error):
    """Vectors that must be linearly independent are dependent."""


class DegenerateComplement(Sep4Error):
    """Orthogonal complement of the span is zero-dimensional."""


class InconsistentTolerances(Sep4Error):
    """Threshold decisions contradict a theorem the verdict rests on."""


class InvalidSeed(Sep4Error):
    """A random seed or count of random starts is not a non-negative integer."""


class StateFormatError(Sep4Error):
    """State, basis or report JSON is malformed or contains non-finite entries."""
