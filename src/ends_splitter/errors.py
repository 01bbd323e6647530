"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: configuration problems
exit 1, numerical failures exit 2, structural failures exit 3.
"""


class EndsSplitterError(Exception):
    """Base class for all package errors."""


class PresentationError(EndsSplitterError):
    """Presentation does not define a group with infinitely many ends."""


class ScenarioError(EndsSplitterError):
    """Invalid scenario configuration (CLI exit 1)."""


class InvalidBoundary(EndsSplitterError):
    """A shell vertex is not covered by any end class of the boundary data."""


class NonConvergence(EndsSplitterError):
    """Iterative solver hit its iteration cap above tolerance (CLI exit 2)."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class MismatchedTruncations(EndsSplitterError):
    """Two fields living on different truncations were combined."""


class DegenerateDrop(EndsSplitterError):
    """Gap certificate found no positive drop; upstream classification suspect."""


class NoRegularValue(EndsSplitterError):
    """No admissible wall threshold exists near 1/2."""


class CrossingWalls(EndsSplitterError):
    """Two walls separate each other's points (CLI exit 3)."""


class NotATree(EndsSplitterError):
    """Wall-incidence graph failed the tree checks (CLI exit 3)."""


class NeckCoverageError(EndsSplitterError):
    """Structural neck assertions failed on a window (CLI exit 3)."""
