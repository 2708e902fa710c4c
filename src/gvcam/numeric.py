"""Scalar and small-matrix utilities shared across the library.

Two numeric regimes coexist:

* floating point (``float64`` / ``complex128`` ndarrays), used for all
  rank/root/tolerance decisions, and
* exact rational (object ndarrays of :class:`fractions.Fraction`), used
  when inputs are rational and the caller asked for exact arithmetic.

Everything in this module is polynomial, so the same code path serves
both regimes; only norms and tolerance comparisons force a conversion
to float.  Rationals serialize as ``"a/b"`` strings.

:func:`common_type` is the one place that decides the number type of a
computation on several arrays, :func:`negligible` the one zero test, and
:func:`norm` the one norm of raw input: only this module knows the range
of squarable norms, and :func:`_binade` is its one power-of-two scaling.
The type tests look for an ndarray (its dtype) or a float first: the
isinstance tests of Fraction and Integral go through ``abc``, slowly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral

import numpy as np

from .errors import DegenerateInput

__all__ = [
    "vec", "is_exact", "as_float", "norm", "unitize", "row_norms",
    "common_type", "power", "multiply",
    "parse_scalar", "format_scalar", "parse_vector", "vector_payload",
    "projective_distance",
    "det3", "det4", "LINE_COORD_PAIRS", "compound2", "exact_nullspace",
    "binary_eval", "binary_roots",
    "realify", "negligible",
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

#: Float64 elements (4 MiB) that one batched pass over a stack of tuples
#: (SVDs or generators) may gather; a longer stack goes through in chunks
#: of tuples, with the same values, since each tuple is computed alone.
#: At this size ``gvcam project`` on 10^4 points peaks under 80 MiB, and
#: its generator pass runs faster than in 16 MiB chunks.
SVD_BUDGET = 1 << 19


def vec(data, exact: bool | None = None):
    """Coerce ``data`` to a 1-d (or 2-d) numpy array.

    ``exact=True`` forces Fractions (object dtype); ``exact=False`` forces
    float64/complex128; ``None`` keeps Fractions if any entry already is one.
    """
    if isinstance(data, np.ndarray) and exact is None:
        return data
    items = np.asarray(data, dtype=object)
    if exact or exact is None and any(isinstance(x, Fraction)
                                      for x in items.flat):
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
    if isinstance(a, np.ndarray):       # before the slower Fraction test
        return a.dtype.kind == "O"
    return isinstance(a, Fraction)


def negligible(v, scale=None, eps: float = ZERO_EPS, axis=None):
    """Whether ``v`` is zero: the whole of it when ``axis`` is None (a
    bool), or as a boolean array each entry (``axis=()``) or each row of a
    stack (``axis=-1``).

    A Fraction is compared with 0 and with nothing else.  A float or
    complex counts as zero when its :func:`norm` (``norm(v, axis)``) is at
    most ``eps`` times ``scale()``, 1 when ``scale`` is omitted.  ``scale``
    is a callable, run only for floats, so that an exact path never takes
    a float norm; its value may be an array that broadcasts against the
    verdicts (one scale per row, say).
    """
    if is_exact(v):
        zero = np.asarray(v == 0, dtype=bool)
        return bool(zero.all()) if axis is None else zero.all(axis=axis)
    return norm(v, axis) <= eps * (1.0 if scale is None else scale())


def as_float(a):
    """Lossy conversion of a possibly-exact array/scalar to float/complex;
    an exact value beyond the float range is a DegenerateInput."""
    try:
        if isinstance(a, np.ndarray):       # before the slower Fraction test
            return a if a.dtype.kind != "O" else np.asarray(
                [float(x) for x in a.flat], dtype=np.float64).reshape(a.shape)
        if isinstance(a, Fraction):
            return float(a)
    except OverflowError:
        raise DegenerateInput("an exact value exceeds the float "
                              "range") from None
    return a


#: Row norms whose squares neither under- nor overflow, with room for the
#: sum of a few of them.
_SQUARABLE = (1e-150, 1e150)


def _binade(a, axis=None):
    """``(b, e)``: the float or complex array ``a`` times 2**-e, exactly, e
    the binary exponent of its largest |entry| (of each row's, shaped
    (..., 1), with ``axis=-1``), so that b's largest entry is in [0.5, 1)."""
    a = np.array(a, dtype=np.result_type(a, 1.0))       # a copy
    e = np.frexp(np.abs(a).max(axis, keepdims=axis is not None, initial=0))[1]
    # in two factors, neither of which overflows for subnormal rows, of the
    # real and imaginary parts, so that a complex inf keeps its 0j
    parts = a.view(np.float64)
    parts *= np.ldexp(1.0, -e // 2)
    parts *= np.ldexp(1.0, -e - -e // 2)
    return a, e


def _squarable(a):
    """``(b, m, n)`` of float rows ``a``: b is ``a`` with each row whose
    :func:`row_norms` value lies outside :data:`_SQUARABLE` (0 and inf
    too) at its :func:`_binade`, m is row_norms of b, and n the norms of
    ``a``, which are m scaled back."""
    with np.errstate(over="ignore"):    # past the float range, n is inf
        n = row_norms(a)
        squarable = (n >= _SQUARABLE[0]) & (n <= _SQUARABLE[1])
        if squarable.all():     # .all(), as np.all costs more on one vector
            return a, n, n
        b, e = _binade(a, -1)
        b = np.where(squarable[..., None], a, b)
        m = row_norms(b)
        return b, m, np.where(squarable, n, np.ldexp(m, e[..., 0]))


def norm(a, axis=None):
    """The Euclidean norm of all of ``a``, of each entry (``axis=()``, its
    modulus) or of each row (``axis=-1``): :func:`row_norms` of a row
    whose value lies in :data:`_SQUARABLE`, else its :func:`_binade`'s
    scaled back, 0 only for zero and inf only beyond the float range."""
    a = as_float(np.asarray(a))
    if axis == ():
        return np.abs(a)
    n = _squarable(a.reshape(-1) if axis is None else a)[2]
    return float(n) if axis is None else n


def row_norms(a):
    """Euclidean norm of each row of a float stack (of ``a`` itself when
    it is 1-d), unchecked: the kernel for rows at unit scale.  A row of
    raw input takes :func:`norm` ``(a, -1)``."""
    a = np.ascontiguousarray(np.abs(a))
    return np.sqrt(np.vecdot(a, a))


def unitize(a):
    """Each row of a float vector or stack over its norm, at its
    :func:`_squarable` scale.  Exact arrays are returned unchanged (their
    residuals are tested against exact zero, not a tolerance)."""
    a = vec(a)
    if is_exact(a):
        return a
    b, n, _ = _squarable(a)
    if b is not a and not n.all():      # a zero row is never squarable
        raise DegenerateInput("cannot normalize a zero vector")
    return b / n[..., None]


def common_type(*arrays):
    """The arrays in one number type, as a list: unchanged when every one
    is exact, else :func:`as_float` of each, which is what Python's mixed
    Fraction-float arithmetic gives.  None stands for no array."""
    if all(a is None or is_exact(a) for a in arrays):
        return list(arrays)
    return [as_float(a) for a in arrays]


def power(a, e):
    """``a ** e``; a float or complex array takes ``np.float_power``,
    which rounds as the scalar ``**`` (libm ``pow``) does and numpy's
    array ``**`` does not.  Fractions and scalars take ``**``."""
    if isinstance(a, np.ndarray) and a.dtype != object:
        return np.float_power(a, e)
    return a ** e


def multiply(a, b):
    """``a * b``; two complex arrays are multiplied on their real and
    imaginary parts, (ac - bd) + (ad + bc)i, which rounds as numpy's scalar
    complex multiply does and its vectorized array loop does not."""
    if not (np.iscomplexobj(a) and np.iscomplexobj(b)):
        return a * b
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _scaled_rows(a):
    """An exact vector or stack with each row divided exactly by its
    coordinate of largest magnitude (which becomes 1): a row then carries
    no projective scale, and its coordinates round to floats without
    overflow.  Float input is returned as it is."""
    if not is_exact(a):
        return a
    rows = []
    for row in a.reshape(-1, a.shape[-1]):
        pivot = max(row, key=abs)
        if pivot == 0:
            raise DegenerateInput("zero vector has no projective class")
        rows.append([x / pivot for x in row])
    return np.array(rows, dtype=object).reshape(a.shape)


# --- scalar (de)serialization ----------------------------------------------

def parse_scalar(value, exact: bool = False):
    """Parse a JSON-level scalar: number, or ``"a/b"`` rational string."""
    if isinstance(value, float):        # before the slower Integral test
        if exact:
            raise DegenerateInput("exact mode requires integer or 'a/b' "
                                  "coordinates, got float %r" % value)
        if not math.isfinite(value):
            raise DegenerateInput("coordinates must be finite, got %r" % value)
        return value
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
    raise DegenerateInput("cannot parse scalar %r" % (value,))


def format_scalar(value):
    """Render a scalar for JSON: rationals as strings, floats as floats."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, complex) or (
        isinstance(value, np.generic) and np.iscomplexobj(value)
    ):
        return {"re": format_scalar(float(value.real)),
                "im": format_scalar(float(value.imag))}
    return float(value)


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
    the list of payloads of the rows of a stack or of a tuple of vectors; a
    float64 array is its own payload, as :func:`format_scalar` of a float64
    is the identity."""
    if isinstance(v, tuple):
        return [vector_payload(row) for row in v]
    v = np.asarray(v)
    if v.dtype == np.float64:
        return v.tolist()
    if v.ndim > 1:
        return [vector_payload(row) for row in v]
    return [format_scalar(x) for x in v.tolist()]


# --- projective comparisons -------------------------------------------------

def projective_distance(u, v) -> float:
    """min(|u/|u| - v/|v||, |u/|u| + v/|v||): 0 iff projectively equal."""
    u = as_float(vec(u)).astype(complex)
    v = as_float(vec(v)).astype(complex)
    nu, nv = norm(u), norm(v)
    if nu == 0 or nv == 0:
        raise DegenerateInput("zero vector has no projective class")
    u, v = u / nu, v / nv
    # optimal phase alignment (handles complex scale, reduces to +- for real)
    inner = np.vdot(v, u)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return norm(u - phase * v)


def realify(v):
    """(real vector, True) when v is a complex multiple of a real vector,
    up to ``REAL_EPS`` relative to its largest entry; else (v, False).
    The real vector is v divided by that entry."""
    v = np.asarray(v, dtype=complex)
    pivot = v[int(np.argmax(np.abs(v)))]
    w = v / pivot
    if float(np.max(np.abs(w.imag))) < REAL_EPS:
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


#: Index pairs (i, j) of the six coordinates of a line, in storage order.
LINE_COORD_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# row index i, j and column index k, l of every 2x2 minor
_I, _J = (np.array(v)[:, None] for v in zip(*LINE_COORD_PAIRS))
_K, _L = (np.array(v)[None, :] for v in zip(*LINE_COORD_PAIRS))


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


def binary_roots(coeffs):
    """Projective roots (s[k] : t[k]), where found[k], of a binary form of
    degree d, or of each row of an (n, d + 1) stack: arrays (s, t, found)
    of shape (d,) or (n, d).

    Scaled by its largest coefficient, a form has a root at (1 : 0) per
    leading coefficient within ``FORM_EPS`` of 0, at (0 : 1) per trailing
    exact zero, and (s : 1) per eigenvalue of the companion matrix of the
    rest, bit for bit as ``numpy.roots`` finds them (which overflows on a
    subnormal form), one ``eigvals`` call per count of leading and trailing
    zeros.  A zero form finds no root; a non-finite one is DegenerateInput.
    """
    c = np.atleast_2d(as_float(vec(coeffs))).astype(complex)
    if not np.all(np.isfinite(c)):
        raise DegenerateInput("a binary form has a non-finite coefficient")
    d = c.shape[1] - 1
    # binaded, as numpy's complex division by a subnormal scale overflows
    c = _binade(c, -1)[0]
    scale = np.max(np.abs(c), axis=1, keepdims=True)
    live = scale[:, 0] > 0
    np.divide(c, scale, out=c, where=live[:, None])
    # zero rows count no leading and no trailing zeros
    lead = np.argmin(np.abs(c) <= FORM_EPS, axis=1)
    trail = np.argmax(c[:, ::-1] != 0, axis=1)
    s = (np.arange(d) < lead[:, None]).astype(complex)
    t = 1 - s
    todo = live & (lead + trail < d)
    for lo, tr in sorted(set(zip(lead[todo].tolist(), trail[todo].tolist()))):
        k = d - lo - tr
        rows = np.flatnonzero(todo & (lead == lo) & (trail == tr))
        p = c[rows, lo:d + 1 - tr]
        companion = np.zeros((len(rows), k, k), dtype=complex)
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        companion[:, np.arange(1, k), np.arange(k - 1)] = 1
        s[rows, lo:lo + k] = np.linalg.eigvals(companion)
    found = np.repeat(live[:, None], d, axis=1)
    if np.ndim(coeffs) == 1:
        return s[0], t[0], found[0]
    return s, t, found
