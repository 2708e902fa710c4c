"""gvcam: line geometry for generalized cameras.

Lines in P^3 in Pluecker coordinates, concurrency tests via explicit
generator polynomials, a catalog of order-one line-congruence cameras,
multi-view correspondence and baselines, multifocal tensors for the
photographic models, and specular reflection for catadioptric setups.

Every name is imported from its module (``gvcam.plucker``,
``gvcam.cameras``, ...); importing the package loads none of them.
"""

__version__ = "0.1.0"
