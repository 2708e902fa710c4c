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
uses.  The numerical decision (:func:`find_common_point`) takes the
least-squares point of the stacked primal matrices and accepts when every
line passes within ``tol`` of it, which costs O(n); the generators are
the certificate that names a rejection.

The generators of a stack of real tuples go through one array pass
(:func:`_generators`) whose values are those of the scalar per-triple
functions; :func:`worst_of_stack` names the largest of each tuple.

The multidegree of the concurrency variety with respect to the n line
factors is also computed here, as an explicit integer polynomial.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import numpy as np

from .errors import AmbiguousPencil, InvalidN
from . import numeric
from .numeric import (DEFAULT_TOL, as_float, exact_nullspace, is_exact,
                      negligible, row_norms, unitize, vec)
from .plucker import dual_line, incidence, primal_matrix

__all__ = [
    "PROBE_POINTS", "quadric_generators", "cubic_generators",
    "trilinear_transversal", "coplanarity_cubics", "evaluate_generators",
    "GeneratorReport", "worst_of_stack",
    "concurrent_by_generators", "find_common_point", "multidegree",
    "MultidegreePolynomial", "generator_counts",
]

#: Probe points: the four basis points followed by the six pairwise sums.
PROBE_POINTS = tuple(
    tuple(int(i == a) + int(i == b) for i in range(4))
    for a, b in [(0, 0), (1, 1), (2, 2), (3, 3),
                 (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
)
_PROBES = np.array(PROBE_POINTS)
_FLOATS = np.finfo(np.float64)


def _signed_minors(m):
    """The four signed 3x3 minors of a 4x3 stack (cofactors along rows)."""
    out = []
    for drop in range(4):
        d = numeric.det3([m[r] for r in range(4) if r != drop])
        out.append(d if drop % 2 == 0 else -d)
    return out


def _canonical_minor(minors, exact: bool):
    """One representative of the four proportional minors: largest magnitude
    (first nonzero in exact mode)."""
    if exact:
        return next((m for m in minors if m != 0), minors[0])
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
    return cubic_generators(dual_line(vec(p)), dual_line(vec(q)),
                            dual_line(vec(r)))


# --- one array pass over a stack of tuples ------------------------------------

@lru_cache(maxsize=8)
def _index_tables(n: int):
    """Index arrays of the pairs i <= j and the triples i < j < k of n
    lines, in the scalar path's order (read-only: they are shared)."""
    pairs = np.triu_indices(n)
    triples = np.array(list(combinations(range(n), 3)),
                       dtype=np.intp).reshape(-1, 3)
    for a in (*pairs, triples):
        a.flags.writeable = False
    return pairs, triples


@lru_cache(maxsize=8)
def _generator_names(n: int):
    """The generator names of n lines, in value order: ``quadric[i][j]``
    for the pairs i <= j, then ``cubic[i][j][k][u]`` for the triples in
    ``combinations`` order and the probes in :data:`PROBE_POINTS` order.
    Raises InvalidN for fewer than two lines."""
    if n < 2:
        raise InvalidN("need at least two lines, got %d" % n)
    (i, j), triples = _index_tables(n)
    return (tuple("quadric[%d][%d]" % p for p in zip(i.tolist(), j.tolist()))
            + tuple("cubic[%d][%d][%d][%d]" % (*t, u)
                    for t in triples.tolist()
                    for u in range(len(PROBE_POINTS))))


def _generators(L, magnitudes=False):
    """Every generator of each tuple of an (M, n, 6) stack of unitized
    floats or of Fractions, as (M, G) values in name order, or with
    ``magnitudes`` (floats only) their ``np.abs``, bit for bit.

    The scalar expressions are reused on arrays: :func:`incidence` for the
    quadrics and :func:`_signed_minors` for the cubics, with the same
    operands in the same order, so every value equals the scalar path's.
    Each entry of ``P @ u`` adds at most two nonzero products (a probe has
    at most two nonzero entries, 1 or 2, so the products are exact), hence
    one stacked matmul rounds as the per-probe ones do; its columns are
    gathered as (row, line, T, M, u), so that the minors read contiguous
    operands.  The canonical minor is the first largest for floats (so its
    magnitude is the largest of the four, or NaN, as ``argmax`` picks a
    NaN) and the first nonzero for Fractions, as :func:`_canonical_minor`
    picks it.
    """
    (i, j), triples = _index_tables(L.shape[1])
    quadrics = incidence(L[:, i], L[:, j])
    cols = (primal_matrix(L) @ _PROBES.T).transpose(2, 1, 0, 3)
    minors = np.array(_signed_minors(np.take(cols, triples.T, axis=1)))
    if magnitudes:                                  # minors: (4, T, M, u)
        quadrics, cubics = np.abs(quadrics), np.max(np.abs(minors), axis=0)
    else:
        pick = np.argmax(minors != 0 if is_exact(L) else np.abs(minors), 0)
        cubics = np.take_along_axis(minors, pick[None], 0)[0]
    return np.concatenate(
        [quadrics, cubics.transpose(1, 0, 2).reshape(len(L), -1)], axis=1)


def _chunks(L):
    """The slices of an (M, n, 6) stack that :func:`_generators` takes."""
    m, n = L.shape[:2]
    # the peak of _generators per tuple (tracemalloc, n = 2..16): pairs,
    # plane columns, and per triple the gathered columns, the four minors
    # with their temporaries, their magnitudes and the picked one
    step = max(1, numeric.SVD_BUDGET // (16 * comb(n + 1, 2) + 40 * n
                                         + 256 * comb(n, 3)))
    return (L[k:k + step] for k in range(0, m, step))


def _reference_generators(lines):
    """The generator values of one tuple from the scalar functions, in
    name order."""
    cubics = [v for i, j, k in combinations(range(len(lines)), 3)
              for v in cubic_generators(lines[i], lines[j], lines[k]).values()]
    return np.array([*quadric_generators(lines).values(), *cubics])


#: The generator values of one n-tuple, in the order of ``names`` (see
#: :func:`_generator_names`).  Float inputs are unit-normalized, so the
#: values double as residuals.
GeneratorReport = namedtuple("GeneratorReport", "names values")


def evaluate_generators(lines):
    """Full generator evaluation for an n-tuple of lines (n >= 2).

    ``lines`` may also be an (M, n, 6) stack of M tuples; the result is
    then a list of M reports.  One tuple is a stack of one.  Float rows
    are unit-normalized, so every value is a relative residual; Fractions
    are evaluated as given.  Real stacks go through one array pass (per
    chunk of tuples, when the stack exceeds ``numeric.SVD_BUDGET``);
    complex tuples take the scalar functions one triple at a time, which
    are the reference (numpy's array complex multiply rounds differently
    from its scalar one).
    """
    L, single = _tuple_stack(lines)
    names = _generator_names(L.shape[1])
    L = unitize(L)
    if np.iscomplexobj(L):
        values = [_reference_generators(t) for t in L]
    else:
        values = [v for chunk in _chunks(L) for v in _generators(chunk)]
    reports = [GeneratorReport(names, v) for v in values]
    return reports[0] if single else reports


def worst_of_stack(L):
    """The worst generator of each tuple of an (M, n, 6) stack, as a list
    of names and an array of |values|: the name and |value| of the first
    largest value (or NaN), or "" and 0.0 when every value is zero.

    A float stack takes the magnitudes of one :func:`_generators` pass; a
    stack of Fractions takes ``np.abs`` of its values, compared exactly,
    and a largest one that is zero or a normal float is rounded to a
    float, any other is kept exact (the array holds objects); a complex
    stack takes the scalar functions, and ``hypot`` rounds as the scalar
    ``abs(complex(v))`` does, where ``np.abs`` may not.
    """
    names = _generator_names(L.shape[1])
    exact = is_exact(L)
    r = np.concatenate(
        [np.zeros((0, len(names)), dtype=object if exact else float)]
        + [_magnitudes(chunk, exact) for chunk in _chunks(unitize(L))])
    index = np.argmax(r, axis=1)
    tops = r[np.arange(len(r)), index]
    names = [names[k] if top else "" for k, top in
             zip(index.tolist(), tops.tolist())]
    if exact:
        tops = np.array([float(t) if t == 0 or _FLOATS.tiny <= t <= _FLOATS.max
                         else t for t in tops.tolist()], dtype=object)
    return names, tops


def _magnitudes(chunk, exact):
    """The (m, G) |values| of the generators of a chunk of tuples, in name
    order: float64, Fractions when ``exact``."""
    if exact:
        return np.abs(_generators(chunk))
    if np.iscomplexobj(chunk):
        values = np.array([_reference_generators(t) for t in chunk])
        return np.hypot(values.real, values.imag)
    return _generators(chunk, magnitudes=True)


def concurrent_by_generators(lines, tol: float = DEFAULT_TOL) -> bool:
    """Decide concurrency from the quadrics plus the four basis-point
    transversal cubics of every triple (the set-theoretic criterion)."""
    values = evaluate_generators(lines).values
    q = comb(len(lines) + 1, 2)
    cubics = values[q:].reshape(-1, len(PROBE_POINTS))[:, :4]
    return bool(np.all(negligible(values[:q], eps=tol, axis=()))
                and np.all(negligible(cubics, eps=tol, axis=())))


def _tuple_stack(lines):
    """``lines`` as an (M, n, 6) stack, and whether it was one tuple, which
    becomes a stack of one: of Fractions when every line is exact, else of
    floats (exact lines scaled by :func:`numeric._scaled_rows`)."""
    if isinstance(lines, np.ndarray) and lines.ndim == 3:
        return lines, False
    lines = [vec(l) for l in lines]
    if lines and all(is_exact(l) for l in lines):
        return np.array(lines, dtype=object)[None], True
    return np.array([as_float(numeric._scaled_rows(l))
                     for l in lines])[None], True


def find_common_point(lines, tol: float = DEFAULT_TOL):
    """Common point of the lines, or None.

    Stacks the primal matrices P_i of the unit-normalized lines into a
    4n x 4 system and takes its last right singular vector x as the
    candidate point.  The lines are concurrent iff every line passes
    through x: ``max_i |P_i x| <= tol``.  Each residual is the norm of the
    plane joining line i with the unit point x, so the rule is O(n), free
    of every line's scale, and the same at every n.  Exact input takes an
    exact nullspace instead.

    ``lines`` may also be an (M, n, 6) stack of M tuples; the result is
    then a list of M points or Nones.  One tuple is a stack of one.  The
    systems of all float tuples go through one batched SVD call (per
    chunk of tuples, when the stack exceeds ``numeric.SVD_BUDGET``); each
    tuple of Fractions takes the exact nullspace.

    Raises AmbiguousPencil when the nullspace is (numerically) at least
    2-dimensional, e.g. for repeated lines.
    """
    L, single = _tuple_stack(lines)
    n = L.shape[1]
    if n < 2:
        raise InvalidN("need at least two lines, got %d" % n)
    if is_exact(L):
        points = [_find_common_point_exact(t) for t in L]
    else:
        points = []
        for blocks, _, vt in _svd_chunks(
                L, tol, "solution space is at least 2-dimensional "
                "(repeated lines?)"):
            x = vt[:, -1]
            residuals = row_norms(np.matvec(blocks, x[:, None]))  # (m, n)
            found = np.max(residuals, axis=1) <= tol
            points += [v if ok else None for v, ok in zip(x, found)]
    return points[0] if single else points


def _svd_chunks(L, tol, message):
    """``(blocks, s, vt)`` of each chunk of an (M, n, 6) float stack of
    tuples of lines, in order: the primal matrices of the unitized lines
    as (m, n, 4, 4) and the singular values and right singular vectors of
    each tuple's stacked 4n x 4 system.  A chunk holds as many tuples as
    ``numeric.SVD_BUDGET`` allows; each tuple is computed alone, so the
    values do not depend on it.  Raises AmbiguousPencil(``message``) when
    a tuple's system has a 2-dimensional near-nullspace (s[2] <= tol s[0]).
    """
    m, n = L.shape[:2]
    # the unitized lines, the blocks, LAPACK's copy of them and U
    step = max(1, numeric.SVD_BUDGET // (64 * n))
    for k in range(0, m, step):
        blocks = primal_matrix(unitize(L[k:k + step]))
        _, s, vt = np.linalg.svd(blocks.reshape(len(blocks), 4 * n, 4),
                                 full_matrices=False)
        if np.any(s[:, 2] <= tol * s[:, 0]):
            raise AmbiguousPencil(message)
        yield blocks, s, vt


def _find_common_point_exact(lines):
    stack = np.vstack([primal_matrix(l) for l in lines])
    basis = exact_nullspace(stack)
    if len(basis) >= 2:
        raise AmbiguousPencil(
            "solution space is at least 2-dimensional (repeated lines?)")
    return basis[0] if basis else None


# --- multidegree -------------------------------------------------------------

#: Largest n that :func:`multidegree` takes.  Its report holds n(n-1) +
#: C(n, 3) terms of n factors each, so it grows as n^4: 188 KB at n = 20,
#: 1.2 MB at n = 32 (37 MiB peak), 2.8 MB at n = 40 and 43 MB at n = 80.
MAX_MULTIDEGREE_N = 32


class MultidegreePolynomial(namedtuple("MultidegreePolynomial", "n terms")):
    """Integer polynomial in t_1..t_n stored as {exponent tuple: coeff}."""

    @property
    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def term_strings(self):
        out = []
        for expo in sorted(self.terms, reverse=True):
            factors = ("t%d" % i if e == 1 else "t%d^%d" % (i, e)
                       for i, e in enumerate(expo, start=1))
            out.append("%d*%s" % (self.terms[expo], "*".join(factors)))
        return out


def multidegree(n: int) -> MultidegreePolynomial:
    """Multidegree of the concurrency variety for n lines.

    Coefficient 4 on every exponent vector that is 3 everywhere except one
    entry lowered to 1 and another to 2; coefficient 8 when three entries
    are lowered to 2.  The coefficients add up to 8 * C(n+1, 3).
    """
    if n < 2:
        raise InvalidN("multidegree defined for n >= 2, got %d" % n)
    if n > MAX_MULTIDEGREE_N:
        raise InvalidN("multidegree takes n <= %d" % MAX_MULTIDEGREE_N)
    terms = {}
    for i, j in permutations(range(n), 2):
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
