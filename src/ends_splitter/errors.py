"""Exception types shared across the package.

Each class carries the CLI's exit code for it as ``exit_code``: 1 for
configuration problems, which the base class gives every class without a
code of its own; 2 for numerical failures (``NonConvergence``); 3 for
structural ones (``DegenerateDrop``, ``CrossingWalls``, ``NotATree``,
``NeckCoverageError``).
"""


class EndsSplitterError(Exception):
    """Base class for all package errors."""
    exit_code = 1


class PresentationError(EndsSplitterError):
    """Presentation does not define a group with infinitely many ends."""


class ScenarioError(EndsSplitterError):
    """Invalid scenario configuration, or outputs that cannot be written."""


class InvalidBoundary(EndsSplitterError):
    """A shell vertex is not covered by any end class of the boundary data."""


class NonConvergence(EndsSplitterError):
    """Iterative solver hit its iteration cap above tolerance."""
    exit_code = 2

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class MismatchedTruncations(EndsSplitterError):
    """Fields or end functions of different truncations were combined."""


class DegenerateDrop(EndsSplitterError):
    """Gap certificate found no positive drop; upstream classification suspect."""
    exit_code = 3


class NoRegularValue(EndsSplitterError):
    """No admissible wall threshold exists near 1/2."""


class CrossingWalls(EndsSplitterError):
    """Two walls separate each other's points."""
    exit_code = 3


class NotATree(EndsSplitterError):
    """Wall-incidence graph failed the tree checks."""
    exit_code = 3


class NeckCoverageError(EndsSplitterError):
    """Structural neck assertions failed on a window."""
    exit_code = 3
