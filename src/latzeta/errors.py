"""Exception hierarchy shared by all latzeta modules.

Two families matter to callers: DomainError subclasses mean the request
itself is invalid (bad lattice, point on the lattice, parameters outside
the supported region), ConvergenceError subclasses mean the computation
could not reach the requested tolerance within its budget.
"""


class LatzetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LatzetaError):
    """Input outside the supported parameter domain."""


class ZeroGenerator(DomainError):
    """A lattice generator is zero."""


class DegenerateLattice(DomainError):
    """Lattice generators are (numerically) R-linearly dependent."""


class PointOnLattice(DomainError):
    """The evaluation point a lies on (or too close to) the lattice."""


class PoleNearDomain(DomainError):
    """An integration region passes too close to the integrand's pole."""


class UnsupportedDecay(DomainError):
    """Integrand decays too slowly for the requested integration mode."""


class ConvergenceError(LatzetaError):
    """Computation failed to reach the requested tolerance."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NoConvergence(ConvergenceError):
    """Adaptive refinement exhausted its panel budget; .best holds the
    best estimate obtained."""


class SlowConvergence(ConvergenceError):
    """A series needed more terms than the term budget allows."""


class BudgetExceeded(LatzetaError):
    """A brute-force enumeration would exceed its hard size limit."""
