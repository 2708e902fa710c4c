"""Scalar and small-matrix utilities shared across the library.

Two numeric regimes coexist:

* floating point (``float64`` / ``complex128`` ndarrays), used for all
  rank/root/tolerance decisions, and
* exact rational (object ndarrays of :class:`fractions.Fraction`), used
  when inputs are rational and the caller asked for exact arithmetic.

Everything in this module is polynomial, so the same code path serves
both regimes; only norms and tolerance comparisons force a conversion
to float.  Rationals serialize as ``"a/b"`` strings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral

import numpy as np

from .errors import DegenerateInput

__all__ = [
    "vec", "is_exact", "as_float", "norm", "unitize", "row_norms",
    "unitize_rows", "unit_rows", "power",
    "parse_scalar", "format_scalar", "parse_vector", "vector_payload",
    "proj_normalize", "projective_distance",
    "det3", "det4", "compound2", "exact_nullspace",
    "binary_eval", "binary_roots",
    "realify", "negligible", "negligible_each", "negligible_rows",
    "DEFAULT_TOL", "ZERO_EPS", "FOCAL_EPS",
    "FORM_EPS", "REAL_EPS", "SVD_BUDGET",
]

#: Default tolerance of every residual test in the package.
DEFAULT_TOL = 1e-8

#: Relative size below which a computed float vector counts as zero.
ZERO_EPS = 1e-12

#: Relative size below which a projection counts as a focal hit.
FOCAL_EPS = 1e-10

#: Relative size below which a binary form, or one of its coefficients,
#: counts as zero.
FORM_EPS = 1e-13

#: Relative imaginary part below which a complex value counts as real.
REAL_EPS = 1e-7

#: Float64 elements (16 MiB) that one batched pass over a stack of tuples
#: (SVDs or generators) may gather; a longer stack goes through in chunks
#: of tuples, with the same values, since each tuple is computed alone.
SVD_BUDGET = 1 << 21


def vec(data, exact: bool | None = None):
    """Coerce ``data`` to a 1-d (or 2-d) numpy array.

    ``exact=True`` forces Fractions (object dtype); ``exact=False`` forces
    float64/complex128; ``None`` keeps Fractions if any entry already is one.
    """
    if isinstance(data, np.ndarray) and exact is None:
        return data
    items = np.asarray(data, dtype=object)
    has_fraction = any(isinstance(x, Fraction) for x in items.flat)
    if exact or (exact is None and has_fraction):
        out = np.empty(items.shape, dtype=object)
        for idx, x in np.ndenumerate(items):
            out[idx] = x if isinstance(x, Fraction) else Fraction(x)
        return out
    arr = np.asarray(data)
    if arr.dtype == object:
        arr = np.asarray([complex(x) for x in arr.flat]).reshape(arr.shape)
        if np.all(arr.imag == 0):
            arr = arr.real
    if arr.dtype.kind in "iu":
        arr = arr.astype(np.float64)
    return arr


def is_exact(a) -> bool:
    return isinstance(a, Fraction) or (
        isinstance(a, np.ndarray) and a.dtype == object
    )


def negligible(v, scale: float = 1.0, eps: float = ZERO_EPS) -> bool:
    """True when ``v`` (a scalar or an array) is zero.

    Fractions are compared with 0 exactly and ``scale`` is ignored; floats
    and complexes count as zero when ``norm(v) <= eps * scale``.
    """
    if is_exact(v):
        return all(x == 0 for x in np.ravel(v))
    return norm(v) <= eps * scale


def negligible_each(v, scale=1.0, eps: float = ZERO_EPS):
    """:func:`negligible` of each element of an array, as a boolean array;
    ``scale`` may be an array that broadcasts against ``v`` (one scale per
    row, say), and is ignored for Fractions."""
    if is_exact(v):
        return np.asarray(v == 0, dtype=bool)
    a = np.abs(v)
    # norm(v_i), bit for bit, also where a * a under- or overflows
    return np.sqrt(a * a) <= eps * scale


def negligible_rows(v, scale, eps: float = ZERO_EPS):
    """:func:`negligible` of each row of a stack, as a boolean array:
    Fraction rows are compared with 0 exactly, and a float row counts as
    zero when its norm is at most ``eps`` times its entry of ``scale()``,
    a callable, so that the scale is only computed for floats."""
    if is_exact(v):
        return np.all(np.asarray(v == 0, dtype=bool), axis=-1)
    return row_norms(v) <= eps * scale()


def as_float(a):
    """Lossy conversion of a possibly-exact array/scalar to float/complex;
    an exact value beyond the float range is a DegenerateInput."""
    try:
        if isinstance(a, np.ndarray) and a.dtype == object:
            return np.asarray([float(x) for x in a.flat],
                              dtype=np.float64).reshape(a.shape)
        if isinstance(a, Fraction):
            return float(a)
    except OverflowError:
        raise DegenerateInput("an exact value exceeds the float "
                              "range") from None
    return a


def norm(a) -> float:
    return float(np.linalg.norm(np.abs(as_float(np.asarray(a)))))


def row_norms(a):
    """Euclidean norm of each row of a float stack (of ``a`` itself when
    it is 1-d); equal, bit for bit, to :func:`norm` of the row."""
    a = np.ascontiguousarray(np.abs(a))
    return np.sqrt(np.vecdot(a, a))


def unitize_rows(a):
    """Each row of a float stack scaled to unit norm, as :func:`unitize`
    scales one vector."""
    n = row_norms(a)
    if not np.all(n):
        raise DegenerateInput("cannot normalize a zero vector")
    return a / n[..., None]


def unit_rows(a):
    """``(u, n)`` with ``u / n`` the rows of ``a`` at unit norm: for a
    float stack its unitized rows and n = 1.0, for an exact stack the rows
    unchanged and the float norm of each.  A product of exact ``u``s stays
    exact, so it is 0.0 exactly where it vanishes, and dividing a float
    result by 1.0 changes no bit."""
    if is_exact(a):
        return a, row_norms(as_float(a))
    return unitize_rows(a), 1.0


def power(a, e):
    """``a ** e``; a float or complex array takes ``np.float_power``,
    which rounds as the scalar ``**`` (libm ``pow``) does and numpy's
    array ``**`` does not.  Fractions and scalars take ``**``."""
    if isinstance(a, np.ndarray) and a.dtype != object:
        return np.float_power(a, e)
    return a ** e


def unitize(a):
    """Scale a float vector/matrix to unit Euclidean norm.

    Exact arrays are returned unchanged (their residuals are tested against
    exact zero, not a tolerance).
    """
    a = vec(a)
    if is_exact(a):
        return a
    n = norm(a)
    if n == 0.0:
        raise DegenerateInput("cannot normalize a zero vector")
    return a / n


def _scaled_rows(a):
    """An exact vector or stack with each row divided exactly by its
    largest coordinate (:func:`proj_normalize`): a row then carries no
    projective scale, and its coordinates round to floats without
    overflow.  Float input is returned as it is."""
    if not is_exact(a):
        return a
    rows = [proj_normalize(row) for row in a.reshape(-1, a.shape[-1])]
    return np.array(rows, dtype=object).reshape(a.shape)


# --- scalar (de)serialization ----------------------------------------------

def parse_scalar(value, exact: bool = False):
    """Parse a JSON-level scalar: number, or ``"a/b"`` rational string."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError:
            raise DegenerateInput("cannot parse rational %r" % value) from None
    if isinstance(value, bool):
        raise DegenerateInput("booleans are not coordinates")
    if isinstance(value, Integral):
        if exact:
            return Fraction(value)
        try:
            return float(value)
        except OverflowError:
            raise DegenerateInput("integer coordinate of %d bits exceeds the "
                                  "float range" % value.bit_length()) from None
    if isinstance(value, float):
        if exact:
            raise DegenerateInput(
                "exact mode requires integer or 'a/b' coordinates, got float %r" % value
            )
        if not math.isfinite(value):
            raise DegenerateInput("coordinates must be finite, got %r" % value)
        return value
    raise DegenerateInput("cannot parse scalar %r" % (value,))


def format_scalar(value):
    """Render a scalar for JSON: rationals as strings, floats at 17 digits."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, complex) or (
        isinstance(value, np.generic) and np.iscomplexobj(value)
    ):
        return {"re": format_scalar(float(value.real)),
                "im": format_scalar(float(value.imag))}
    return float(format(float(value), ".17g"))


def parse_vector(values, length: int | None = None, exact: bool = False):
    """Parse a JSON coordinate list: Fractions (object dtype) under
    ``exact``, else float64 (a rational string rounded with
    ``float(Fraction)``), so that no vector mixes the two."""
    if not isinstance(values, (list, tuple)):
        raise DegenerateInput("a coordinate vector must be a list, got %r"
                              % (values,))
    parsed = [parse_scalar(v, exact=exact) for v in values]
    try:
        out = np.array(parsed, dtype=object if exact else np.float64)
    except OverflowError:
        raise DegenerateInput("rational coordinate exceeds the float "
                              "range") from None
    if length is not None and out.shape != (length,):
        raise DegenerateInput(
            "expected a vector of length %d, got shape %s" % (length, out.shape)
        )
    return out


def vector_payload(v):
    """JSON payload for a coordinate vector (list of formatted scalars), or
    the list of payloads of the rows of a stack; a float64 array is its own
    payload, as :func:`format_scalar` of a float64 is the identity."""
    v = np.asarray(v)
    if v.dtype == np.float64:
        return v.tolist()
    if v.ndim > 1:
        return [vector_payload(row) for row in v]
    return [format_scalar(x) for x in v.tolist()]


# --- projective comparisons -------------------------------------------------

def proj_normalize(v):
    """Divide by the coordinate of largest magnitude (it becomes 1)."""
    v = vec(v)
    if is_exact(v):
        pivot = max(v, key=lambda x: abs(x))
        if pivot == 0:
            raise DegenerateInput("zero vector has no projective class")
        return np.array([x / pivot for x in v], dtype=object)
    i = int(np.argmax(np.abs(v)))
    if v[i] == 0:
        raise DegenerateInput("zero vector has no projective class")
    return v / v[i]


def projective_distance(u, v) -> float:
    """min(|u/|u| - v/|v||, |u/|u| + v/|v||): 0 iff projectively equal."""
    u = as_float(vec(u)).astype(complex)
    v = as_float(vec(v)).astype(complex)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise DegenerateInput("zero vector has no projective class")
    u, v = u / nu, v / nv
    # optimal phase alignment (handles complex scale, reduces to +- for real)
    inner = np.vdot(v, u)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(u - phase * v))


def realify(v, rel_tol: float = REAL_EPS):
    """(real vector, True) when v is a complex multiple of a real vector,
    up to ``rel_tol`` relative to its largest entry; else (v, False).
    The real vector is v divided by that entry."""
    v = np.asarray(v, dtype=complex)
    pivot = v[int(np.argmax(np.abs(v)))]
    w = v / pivot
    if float(np.max(np.abs(w.imag))) < rel_tol:
        return w.real, True
    return v, False


# --- small exact-capable determinants ----------------------------------------

def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def det4(m):
    total = 0
    for j in range(4):
        minor = [[m[r][c] for c in range(4) if c != j] for r in range(1, 4)]
        term = m[0][j] * det3(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# row index i, j and column index k, l of every 2x2 minor
_I, _J = (np.array(v)[:, None] for v in zip(*_PAIRS))
_K, _L = (np.array(v)[None, :] for v in zip(*_PAIRS))


def compound2(m):
    """Second compound matrix: 6x6 of 2x2 minors, row/column pairs ordered
    (01,02,03,12,13,23), of a 4x4 matrix or of each matrix of a stack.
    Maps the Pluecker vector of x v y to that of Mx v My."""
    m = vec(m)
    # C order, so that a stacked matvec rounds as the per-matrix ``@``
    return np.ascontiguousarray(m[..., _I, _K] * m[..., _J, _L]
                                - m[..., _I, _L] * m[..., _J, _K])


def exact_nullspace(m):
    """Basis (list of object vectors) of the right nullspace of a rational
    matrix, via fraction-free-ish Gaussian elimination with exact pivots."""
    m = [[Fraction(x) for x in row] for row in np.asarray(m, dtype=object)]
    rows, cols = len(m), len(m[0])
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            v[pc] = -m[i][fc]
        basis.append(np.array(v, dtype=object))
    return basis


# --- binary forms -------------------------------------------------------------
#
# A binary form of degree d in (s,t) is stored as a coefficient vector
# c[0..d] with  f(s,t) = sum_k c[k] * s^(d-k) * t^k.

def binary_eval(coeffs, s, t):
    """The form at (s : t); s and t may be arrays of values."""
    d = len(coeffs) - 1
    total = 0
    for k, c in enumerate(coeffs):
        total = total + c * power(s, d - k) * power(t, k)
    return total


def binary_roots(coeffs, zero_tol: float = FORM_EPS):
    """Projective roots of a binary form as a list of (s, t) pairs.

    Finite roots come from the companion matrix of the dehomogenized
    polynomial (``numpy.roots``); leading coefficients within ``zero_tol``
    of 0 (relative to the largest coefficient) are roots at (1:0).
    """
    c = as_float(vec(coeffs)).astype(complex)
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise DegenerateInput("zero binary form has no root set")
    c = c / scale
    lead = 0
    while lead < len(c) - 1 and abs(c[lead]) <= zero_tol:
        lead += 1
    roots = [(1.0 + 0j, 0j)] * lead
    tail = c[lead:]
    if len(tail) > 1:
        for r in np.roots(tail):
            roots.append((complex(r), 1.0 + 0j))
    elif abs(tail[0]) <= zero_tol:
        raise DegenerateInput("zero binary form has no root set")
    return roots

