"""Concurrency tests for tuples of lines in P^3.

An n-tuple of lines passes through one common point exactly when

* every pair meets: the n(n+1)/2 incidence traces vanish (the diagonal
  entries are the quadric memberships), and
* no three of them span a "triangle": for each of ten fixed probe points
  u, the three planes (line_i v u) are linearly dependent, detected by the
  3x3 minors of the 4x3 plane stack.

Ten probe points suffice for the full minimal generating set; four
(the standard basis) already decide concurrency together with the
pairwise conditions, which is what :func:`concurrent_by_generators`
uses.  The numerical alternative is a rank test on the stacked primal
matrices (:func:`find_common_point`).

The multidegree of the concurrency variety with respect to the n line
factors is also computed here, as an explicit integer polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .errors import AmbiguousPencil, InvalidN
from .numeric import DEFAULT_TOL, as_float, is_exact, unitize, vec
from .plucker import incidence, primal_matrix

__all__ = [
    "PROBE_POINTS", "quadric_generators", "cubic_generators",
    "trilinear_transversal", "coplanarity_cubics", "evaluate_generators",
    "GeneratorReport", "concurrent_by_generators", "find_common_point",
    "multidegree", "MultidegreePolynomial", "generator_counts",
]

#: Probe points: the four basis points followed by the six pairwise sums.
PROBE_POINTS = tuple(
    tuple(int(i == a) + int(i == b) for i in range(4))
    for a, b in [(0, 0), (1, 1), (2, 2), (3, 3),
                 (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
)


def _signed_minors(m):
    """The four signed 3x3 minors of a 4x3 stack (cofactors along rows)."""
    out = []
    for drop in range(4):
        rows = [m[r] for r in range(4) if r != drop]
        d = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
             - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
             + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        out.append(d if drop % 2 == 0 else -d)
    return out


def _canonical_minor(minors, exact: bool):
    """One representative of the four proportional minors: largest magnitude
    (first nonzero in exact mode)."""
    if exact:
        for m in minors:
            if m != 0:
                return m
        return minors[0]
    return max(minors, key=lambda m: abs(complex(m)))


def trilinear_transversal(p, q, r, u, all_minors: bool = False):
    """Cubic obstruction to a transversal of p, q, r through the point u.

    The 4x3 stack of join planes (Pu | Qu | Ru) drops rank exactly when a
    line through ``u`` meets all three lines.  Returns the canonical signed
    3x3 minor, or all four with ``all_minors=True``.
    """
    p, q, r, u = vec(p), vec(q), vec(r), vec(u)
    exact = is_exact(p) and is_exact(q) and is_exact(r)
    cols = [primal_matrix(l) @ u for l in (p, q, r)]
    stack = [[cols[c][row] for c in range(3)] for row in range(4)]
    minors = _signed_minors(stack)
    if all_minors:
        return minors
    return _canonical_minor(minors, exact)


def quadric_generators(lines):
    """All pairwise (and self) incidence traces, keyed (i, j) with i <= j.

    Diagonal entries are -4x the quadric membership of each line; the
    off-diagonal ones vanish iff the two lines meet.
    """
    lines = [vec(l) for l in lines]
    return {
        (i, j): incidence(lines[i], lines[j])
        for i in range(len(lines)) for j in range(i, len(lines))
    }


def cubic_generators(p, q, r):
    """The ten canonical transversal cubics of a line triple, keyed by probe
    index into :data:`PROBE_POINTS`."""
    exactify = is_exact(vec(p))
    return {
        ui: trilinear_transversal(p, q, r,
                                  vec(list(u), exact=exactify or None))
        for ui, u in enumerate(PROBE_POINTS)
    }


def coplanarity_cubics(p, q, r):
    """Dual construction: minors of the stacked meet points (P*u | Q*u | R*u);
    these vanish iff the triple lies in a common plane."""
    from .plucker import dual_line
    return cubic_generators(dual_line(vec(p)), dual_line(vec(q)),
                            dual_line(vec(r)))


@dataclass
class GeneratorReport:
    """Evaluated generator values for an n-tuple, with unit-normalized
    inputs so the values double as residuals."""

    quadrics: dict = field(default_factory=dict)
    cubics: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        vals = [abs(complex(v)) for v in self.quadrics.values()]
        vals += [abs(complex(v)) for v in self.cubics.values()]
        return max(vals) if vals else 0.0

    def payload(self):
        from .numeric import format_scalar
        out = {}
        for (i, j), v in sorted(self.quadrics.items()):
            out["quadric[%d][%d]" % (i, j)] = format_scalar(v)
        for (i, j, k, u), v in sorted(self.cubics.items()):
            out["cubic[%d][%d][%d][%d]" % (i, j, k, u)] = format_scalar(v)
        return out


def evaluate_generators(lines) -> GeneratorReport:
    """Full generator evaluation for an n-tuple of lines (n >= 2).

    Float inputs are unit-normalized, so every value is a relative
    residual; exact inputs are evaluated as given.
    """
    if len(lines) < 2:
        raise InvalidN("need at least two lines, got %d" % len(lines))
    lines = [unitize(l) for l in lines]
    rep = GeneratorReport(quadrics=quadric_generators(lines))
    for (i, j, k) in combinations(range(len(lines)), 3):
        cubics = cubic_generators(lines[i], lines[j], lines[k])
        for ui, v in cubics.items():
            rep.cubics[(i, j, k, ui)] = v
    return rep


def concurrent_by_generators(lines, tol: float = DEFAULT_TOL) -> bool:
    """Decide concurrency from the quadrics plus the four basis-point
    transversal cubics of every triple (the set-theoretic criterion)."""
    lines = [unitize(l) for l in lines]
    exact = all(is_exact(l) for l in lines)
    for (i, j), v in quadric_generators(lines).items():
        if (v != 0) if exact else (abs(complex(v)) > tol):
            return False
    for (i, j, k) in combinations(range(len(lines)), 3):
        for u in PROBE_POINTS[:4]:
            v = trilinear_transversal(
                lines[i], lines[j], lines[k], vec(list(u), exact=exact or None))
            if (v != 0) if exact else (abs(complex(v)) > tol):
                return False
    return True


def find_common_point(lines, tol: float = DEFAULT_TOL):
    """Common point of the lines, or None.

    Stacks the primal matrices (each unit-normalized) into a 4n x 4 system;
    the lines are concurrent iff the smallest singular value is negligible
    against the next one, and the common point is the corresponding right
    singular vector.  For n >= 3 the decision is cross-checked triple-wise:
    a tuple is concurrent iff every triple is.

    Raises AmbiguousPencil when the nullspace is (numerically) at least
    2-dimensional, e.g. for repeated lines.
    """
    if len(lines) < 2:
        raise InvalidN("need at least two lines, got %d" % len(lines))
    lines = [unitize(l) for l in lines]
    if all(is_exact(l) for l in lines):
        return _find_common_point_exact(lines)
    stack = np.vstack([as_float(primal_matrix(l)) for l in lines])
    _, s, vt = np.linalg.svd(stack)
    if s[2] <= tol * s[0]:
        raise AmbiguousPencil(
            "solution space is at least 2-dimensional (repeated lines?)")
    if s[3] > tol * s[2]:
        return None
    if len(lines) > 3:
        for trip in combinations(range(len(lines)), 3):
            sub = np.vstack([as_float(primal_matrix(lines[i])) for i in trip])
            st = np.linalg.svd(sub, compute_uv=False)
            if st[3] > tol * st[2]:
                return None
    return vt[-1]


def _find_common_point_exact(lines):
    from .numeric import exact_nullspace
    stack = np.vstack([primal_matrix(l) for l in lines])
    basis = exact_nullspace(stack)
    if len(basis) >= 2:
        raise AmbiguousPencil(
            "solution space is at least 2-dimensional (repeated lines?)")
    return basis[0] if basis else None


# --- multidegree -------------------------------------------------------------

@dataclass(frozen=True)
class MultidegreePolynomial:
    """Integer polynomial in t_1..t_n stored as {exponent tuple: coeff}."""

    n: int
    terms: dict

    @property
    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def term_strings(self):
        out = []
        for expo in sorted(self.terms, reverse=True):
            factors = []
            for i, e in enumerate(expo, start=1):
                factors.append("t%d" % i if e == 1 else "t%d^%d" % (i, e))
            out.append("%d*%s" % (self.terms[expo], "*".join(factors)))
        return out

    def __str__(self):
        return " + ".join(self.term_strings())


def multidegree(n: int) -> MultidegreePolynomial:
    """Multidegree of the concurrency variety for n lines.

    Coefficient 4 on every exponent vector that is 3 everywhere except one
    entry lowered to 1 and another to 2; coefficient 8 when three entries
    are lowered to 2.  The coefficients add up to 8 * C(n+1, 3).
    """
    if n < 2:
        raise InvalidN("multidegree defined for n >= 2, got %d" % n)
    terms = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            expo = [3] * n
            expo[i], expo[j] = 1, 2
            terms[tuple(expo)] = 4
    for trip in combinations(range(n), 3):
        expo = [3] * n
        for i in trip:
            expo[i] = 2
        terms[tuple(expo)] = 8
    return MultidegreePolynomial(n=n, terms=terms)


def generator_counts(n: int):
    """(minimal, groebner) generator counts for the concurrency ideal of n
    lines: minimal = (quadrics, cubics); groebner = (quadrics, cubics,
    quartics)."""
    if n < 2:
        raise InvalidN("generator counts defined for n >= 2, got %d" % n)
    minimal = (comb(n + 1, 2), 10 * comb(n, 3))
    groebner = (comb(n + 1, 2), 12 * comb(n, 3), 4 * comb(n + 1, 4))
    return minimal, groebner
