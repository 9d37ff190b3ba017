"""Two-dimensional Euler-MacLaurin summation and lattice zeta functions.

Public surface: the first-order Euler-MacLaurin summation identities in
one and two dimensions (``em_sum_1d``, ``em_sum_2d``), adaptive
quadrature on segments and rectangles, and on lines, rays and
half-strips with the caller's closed-form tails, Weil's elliptic
functions E_k(a, W) by direct Eisenstein summation and by an integral
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
