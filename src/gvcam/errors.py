"""Exception taxonomy for the gvcam library.

Every geometric failure mode gets its own class so callers (and the CLI)
can react to the precise condition instead of parsing messages.  All of
them derive from :class:`GeometryError`, itself a ``ValueError``.
"""


class GeometryError(ValueError):
    """Base class for all geometric/numeric failures raised by gvcam."""


# --- core line algebra ----------------------------------------------------

class DegenerateInput(GeometryError):
    """Coincident points/planes, zero vectors, or an output that collapses."""


class AmbiguousPencil(GeometryError):
    """A common-point query whose solution space is 2-dimensional or more."""


class InvalidN(GeometryError):
    """A count parameter outside the supported range."""


# --- cameras --------------------------------------------------------------

class FocalPoint(GeometryError):
    """Projection requested at a point of the camera's focal locus."""


class UnsupportedOrder(GeometryError):
    """Operation defined only for order-one congruences was called on an
    order-two one (or vice versa)."""


class InvalidSlit(GeometryError):
    """A slit line that is not on the line quadric, or not finite where a
    finite line is required."""


class DegenerateCubic(GeometryError):
    """Binary cubic on or tangent to the rational normal curve: no clean
    two-cube decomposition exists."""


# --- multi-image ----------------------------------------------------------

class DegenerateConfiguration(GeometryError):
    """Input lines/cameras violate the skewness or disjointness the
    construction needs (shared focal points, non-skew slit triples, ...)."""


class CoincidentCenters(GeometryError):
    """Two pinhole cameras with (projectively) equal centers."""


# --- photographic models --------------------------------------------------

class BaseLocus(GeometryError):
    """Evaluation at a point of the map's base locus (image is 0)."""


class SingularStack(GeometryError):
    """Stacked 4x4 camera matrix is singular; the fiber formula needs its
    inverse."""


# --- catadioptric ---------------------------------------------------------

class IsotropicPlane(GeometryError):
    """Mirror plane whose normal is isotropic; the reflection degenerates."""


class NotOnSurface(GeometryError):
    """Point expected on a surface fails the membership test."""


class SingularPoint(GeometryError):
    """Gradient vanishes: no well-defined tangent plane."""


class IsotropicTangent(GeometryError):
    """Tangent plane at the contact point is isotropic; the specular line is
    undefined."""


class SingularIntersection(GeometryError):
    """Line meets the surface at a singular point; reflection undefined
    there."""


class FocalConfiguration(GeometryError):
    """Fiber query at a point/plane of the congruence's focal locus."""
