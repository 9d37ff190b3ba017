"""Two-dimensional Euler-MacLaurin summation and lattice zeta functions.

Public surface: the first-order Euler-MacLaurin summation identities in
one and two dimensions (``em_sum_1d``, ``em_sum_2d``), adaptive
quadrature on segments, lines and half-strips, Weil's elliptic functions
E_k(a, W) by direct Eisenstein summation and by an integral
representation, and the Hurwitz-Lerch zeta by series and by an integral
representation.
"""

from .bernoulli import frac, p1
from .complexfmt import format_complex, parse_complex
from .em2d import (
    EmBreakdown,
    Function2D,
    Rect,
    brute_force_sum_2d,
    em_sum_1d,
    em_sum_2d,
    validate_partials,
)
from .errors import (
    BudgetExceeded,
    ConvergenceError,
    DegenerateLattice,
    DomainError,
    LatzetaError,
    NoConvergence,
    PointOnLattice,
    PoleNearDomain,
    SlowConvergence,
    TailEstimateFailed,
    UnsupportedDecay,
    ZeroGenerator,
)
from .lattice import (
    Lattice,
    LatticeCoords,
    lattice_coordinates,
    lattice_new,
    nearest_lattice_distance_in_coords,
)
from .lerch import LerchParams, hurwitz_zeta, lerch_coffey, lerch_series, riemann_zeta
from .quadrature import (
    QuadratureResult,
    integrate_half_strip,
    integrate_line,
    integrate_ray,
    integrate_rect,
    integrate_segment,
)
from .verify import CheckResult, run_suite
from .weil import (
    WeilParams,
    WeilReport,
    eisenstein_series,
    weil_direct,
    weil_integral,
)

__version__ = "0.1.0"

__all__ = [
    "frac",
    "p1",
    "parse_complex",
    "format_complex",
    "Lattice",
    "LatticeCoords",
    "lattice_new",
    "lattice_coordinates",
    "nearest_lattice_distance_in_coords",
    "QuadratureResult",
    "integrate_segment",
    "integrate_line",
    "integrate_ray",
    "integrate_rect",
    "integrate_half_strip",
    "Rect",
    "Function2D",
    "EmBreakdown",
    "validate_partials",
    "em_sum_1d",
    "em_sum_2d",
    "brute_force_sum_2d",
    "LerchParams",
    "lerch_series",
    "lerch_coffey",
    "hurwitz_zeta",
    "riemann_zeta",
    "WeilParams",
    "WeilReport",
    "weil_direct",
    "weil_integral",
    "eisenstein_series",
    "CheckResult",
    "run_suite",
    "LatzetaError",
    "DomainError",
    "ZeroGenerator",
    "DegenerateLattice",
    "PointOnLattice",
    "PoleNearDomain",
    "UnsupportedDecay",
    "ConvergenceError",
    "NoConvergence",
    "SlowConvergence",
    "TailEstimateFailed",
    "BudgetExceeded",
]
