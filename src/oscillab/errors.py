"""Exception types shared across the package.

Pointwise numerical checks distinguish "the input is outside the operation's
domain" (raised here) from "the inequality under test failed" (reported in an
AuditReport, never raised).
"""


class OscillabError(Exception):
    """Base class for all package specific errors."""


class SingularPoint(OscillabError):
    """Evaluation point coincides with a root, pointwise ratios are vacuous."""


class ZeroNorm(OscillabError):
    """A norm underflowed to zero; ratios of norms are undefined."""


class QuadratureLimit(OscillabError):
    """The adaptive quadrature needs more live panels in one level than its
    bound allows; a q this large makes |p|^q too narrow a spike to
    integrate."""


class ZeroChord(OscillabError):
    """A construction needs a chord of positive length but got delta = 0."""


class NoIntersection(OscillabError):
    """Two half-lines that were expected to meet do not intersect."""


class DegenerateTangent(OscillabError):
    """A chosen supporting line coincides with the chord line of the pair."""


class NotInH(OscillabError):
    """The supplied boundary point is outside the high-level set."""


class FamilyTooLarge(OscillabError):
    """More than four pairwise disjoint short arcs were found.

    The covering construction proves at most four can exist when the tilt
    angle keeps each short arc turning by more than 2*pi/5. Seeing five or
    more, or a disk on which no point is good, signals a geometry bug or a
    tilt override outside the valid regime.
    """


class NoCutPoint(OscillabError):
    """The padded arc union covers the whole boundary, no cut point exists."""


class CoveringInvalid(OscillabError):
    """A covering construction invariant failed: a boundary point is
    neither good nor covered, a merged run swallowed three padded arcs,
    a central arc does not fit its run, or a case split found no
    component carrying mass."""
