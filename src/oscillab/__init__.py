"""Numerical laboratory for inverse Markov (oscillation) factors.

The package measures how large the derivative of a polynomial must be,
relative to the polynomial itself, in L^q norms along the boundary of a
compact convex plane domain when all roots lie in the domain. It provides
the geometry of convex domains, root-form polynomial norms, executable
audits of the quantitative inequalities behind the lower bounds, a boundary
covering construction, and a search for polynomials with a small oscillation
factor.
"""

from .errors import (
    CoveringInvalid,
    DegenerateTangent,
    FamilyTooLarge,
    NoCutPoint,
    NoIntersection,
    NotInH,
    OscillabError,
    QuadratureLimit,
    SingularPoint,
    ZeroChord,
    ZeroNorm,
)
from .geometry import (
    BoundaryPoint,
    Chord,
    ConvexDomain,
    angle_diam_arc_bounds,
    chord,
    tilted_side_classification,
    triangle_containment_check,
)

__version__ = "0.1.0"
