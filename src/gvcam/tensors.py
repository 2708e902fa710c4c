"""Photographic cameras (matrix form) and their multifocal tensors.

A photographic camera is a geometric camera composed with image
coordinates: a rank-3 3x4 matrix A (pinhole, image in P^2) or a pair of
rank-2 2x4 matrices (A, B) (two-slit, image in P^1 x P^1).  The joint
behavior of several such cameras is captured by the classical multifocal
tensors: the 3x3 fundamental matrix, the 2x2x2x2 quadrifocal tensor, and
the mixed 3x2x2 tensor of a pinhole/two-slit pair, for which a single
degree-6 invariant characterizes realizability.
"""

from __future__ import annotations

import functools
import importlib.resources
import re

import numpy as np

from .errors import (BaseLocus, CoincidentCenters, DegenerateInput,
                     SingularStack)
from .numeric import (ZERO_EPS, _binade, as_float, binary_eval, common_type,
                      det4, exact_nullspace, is_exact, negligible, norm,
                      parse_scalar, unitize, vec, vector_payload)
from .plucker import dual_line, line_from_points, wedge

__all__ = [
    "pinhole_project", "twoslit_project", "pinhole_fiber", "twoslit_fiber",
    "pinhole_center", "twoslit_kernels", "class_beta_project",
    "class_beta_fiber", "fundamental_matrix", "quadrifocal_tensor",
    "quadrifocal_residual", "mixed_epipolar_tensor", "mixed_residual",
    "sextic_invariant", "sextic_relative", "sextic_terms", "tensor_payload",
    "tensor_from_payload",
]


def _vec_matrix(m, shape, name):
    m = vec(m)
    if m.shape != shape:
        raise DegenerateInput("%s must be %dx%d" % (name, *shape))
    return m


def _kernel(M, rank, name):
    """Basis of the kernel of a rank-``rank`` matrix with four columns:
    exact for Fractions, else the last right singular vectors."""
    if is_exact(M):
        ker = [vec(k) for k in exact_nullspace(M)]
    else:
        _, sv, vt = np.linalg.svd(as_float(M))
        deficient = sv[rank - 1] <= ZERO_EPS * sv[0]
        ker = [] if deficient else [vec(k) for k in vt[rank:]]
    if len(ker) != 4 - rank:
        raise DegenerateInput("%s must have rank %d" % (name, rank))
    return ker


def pinhole_center(A):
    """Kernel of a rank-3 3x4 matrix, as a world point."""
    A = _vec_matrix(A, (3, 4), "camera matrix")
    return _kernel(A, 3, "camera matrix")[0]


def twoslit_kernels(A, B):
    """The two slit lines of a pair of 2x4 matrices: the kernels of A and
    of B, as Pluecker vectors."""
    A = _vec_matrix(A, (2, 4), "first matrix")
    B = _vec_matrix(B, (2, 4), "second matrix")
    return tuple(line_from_points(*_kernel(M, 2, "slit matrix"))
                 for M in (A, B))


def pinhole_project(A, x):
    """Image point Ax in P^2."""
    A = _vec_matrix(A, (3, 4), "camera matrix")
    x = vec(x)
    img = vec(A @ x)
    if negligible(img, lambda: norm(A) * norm(x)):
        raise BaseLocus("point is the camera center")
    return img


def twoslit_project(pair, x):
    """Image point (Ax, Bx) in P^1 x P^1."""
    A, B = pair
    A = _vec_matrix(A, (2, 4), "first matrix")
    B = _vec_matrix(B, (2, 4), "second matrix")
    x = vec(x)
    u, v = vec(A @ x), vec(B @ x)
    if negligible(u, lambda: norm(A) * norm(x)):
        raise BaseLocus("point on the first slit")
    if negligible(v, lambda: norm(B) * norm(x)):
        raise BaseLocus("point on the second slit")
    return u, v


def pinhole_fiber(A, w):
    """Line of sight over the image point w = (w0:w1:w2):
    w0 (A1 ^ A2) - w1 (A0 ^ A2) + w2 (A0 ^ A1).

    The wedge A_i ^ A_j is the line dual to the intersection of the two
    row planes, expressed in primal coordinates; the alternating sum makes
    x land on fiber(Ax) for every x.
    """
    A = _vec_matrix(A, (3, 4), "camera matrix")
    w = vec(w)
    d12 = wedge(A[1], A[2])
    d02 = wedge(A[0], A[2])
    d01 = wedge(A[0], A[1])
    out = vec(w[0] * dual_line(d12) - w[1] * dual_line(d02)
              + w[2] * dual_line(d01))
    if negligible(out, lambda: norm(A) ** 2 * norm(w)):
        raise BaseLocus("image point has no fiber")
    return out


def twoslit_fiber(pair, u, v):
    """Viewing line of a two-slit pair over the image point (u, v): the
    meet of the plane u1 A0 - u0 A1, where Ax is proportional to u, and
    the plane v1 B0 - v0 B1, where Bx is proportional to v."""
    A, B = pair
    A = _vec_matrix(A, (2, 4), "first matrix")
    B = _vec_matrix(B, (2, 4), "second matrix")
    stack = np.vstack([A, B])
    if is_exact(stack):
        singular = det4(stack) == 0
    else:
        s = np.linalg.svd(as_float(stack), compute_uv=False)
        singular = s[3] <= ZERO_EPS * s[0]
    if singular:
        raise SingularStack("stacked [A; B] is singular "
                            "(slits meet or matrices degenerate)")
    u, v = vec(u), vec(v)
    out = dual_line(wedge(u[1] * A[0] - u[0] * A[1],
                          v[1] * B[0] - v[0] * B[1]))
    if negligible(out, lambda: norm(A) * norm(B) * norm(u) * norm(v)):
        raise BaseLocus("image point has no fiber")
    return out


_CANON_A = [[1, 0, 0, 0], [0, 1, 0, 0]]
_CANON_B = [[0, 0, 1, 0], [0, 0, 0, 1]]


def class_beta_project(f, g, h, x, A=None, B=None):
    """Photographic camera of the (1, beta) congruence with base line
    V(x0,x1) and curve (s f : t f : g : h): image in P^1 x P^1 is
    (Ax, (g(Ax) - f(Ax) B_1 x, h(Ax) - f(Ax) B_2 x)).

    A and B default to the coordinate selections ((x0,x1), (x2,x3)), in
    the number type of x; custom choices change image coordinates, not
    the fibers.
    """
    f, g, h = vec(f), vec(g), vec(h)
    x = vec(x)
    exact = is_exact(x)
    A = vec(_CANON_A, exact) if A is None else _vec_matrix(A, (2, 4), "A")
    B = vec(_CANON_B, exact) if B is None else _vec_matrix(B, (2, 4), "B")
    u = vec(A @ x)
    if negligible(u, lambda: norm(A) * norm(x)):
        raise BaseLocus("point on the base line")
    fv = binary_eval(f, u[0], u[1])
    w = B @ x
    v = vec([binary_eval(g, u[0], u[1]) - fv * w[0],
             binary_eval(h, u[0], u[1]) - fv * w[1]])
    if negligible(v, lambda: (norm(x) ** len(g)
                              * max(norm(f), norm(g), norm(h)))):
        raise BaseLocus("point on the focal curve")
    return u, v


def class_beta_fiber(f, g, h, u, v):
    """Fiber of :func:`class_beta_project` (canonical A, B) over (u, v):
    the join of the curve point (u0 f : u1 f : g : h)(u) with the base-line
    point (0 : 0 : v0 : v1)."""
    f, g, h = vec(f), vec(g), vec(h)
    u, v = vec(u), vec(v)
    fv = binary_eval(f, u[0], u[1])
    y = vec([u[0] * fv, u[1] * fv,
             binary_eval(g, u[0], u[1]), binary_eval(h, u[0], u[1])])
    z = vec([0, 0, v[0], v[1]])
    return line_from_points(y, z)


# --------------------------------------------------------------------------
# multifocal tensors

def _multifocal(mats):
    """The tensor T with T[i, j, ...] = (-1)^{i+j+...} det4 of the rows of
    ``mats`` left after dropping row i of the first matrix, row j of the
    second, and so on (four rows of four columns), in the matrices'
    :func:`numeric.common_type`."""
    mats = common_type(*mats)
    T = np.empty([len(M) for M in mats], dtype=mats[0].dtype)
    for idx in np.ndindex(T.shape):
        rows = [row for M, i in zip(mats, idx)
                for r, row in enumerate(M) if r != i]
        T[idx] = (-1) ** sum(idx) * det4(rows)
    return vec(T)


def fundamental_matrix(A, B):
    """3x3 tensor F with F[l, i] = (-1)^{i+l} det[A_j; A_k; B_m; B_n],
    (j,k) and (m,n) the increasing complements of i and l, oriented so
    that (Bx)^T F (Ax) = 0."""
    A = _vec_matrix(A, (3, 4), "first camera")
    B = _vec_matrix(B, (3, 4), "second camera")
    F = _multifocal([A, B]).T
    if negligible(F, lambda: norm(A) ** 2 * norm(B) ** 2):
        raise CoincidentCenters("cameras share their center")
    return F


def quadrifocal_tensor(A, B, C, D):
    """2x2x2x2 tensor of two two-slit cameras (A,B), (C,D):
    f[i,j,k,l] = (-1)^{i+j+k+l} det[A_other(i); B_other(j); C_other(k);
    D_other(l)]; contracting with (Ax, Bx, Cx, Dx) gives zero."""
    return _multifocal([_vec_matrix(M, (2, 4), "slit matrix")
                        for M in (A, B, C, D)])


def _contraction(subscripts, T, points) -> float:
    """|T contracted by ``subscripts`` with each point at unit norm|, over
    norm(T); the zero tensor, which has no such ratio, is refused.  T is
    first taken to its ``numeric._binade``, an exact power-of-two scaling
    that leaves the ratio as it is and keeps T's norm squarable."""
    T = _binade(as_float(vec(T)))[0]
    if not np.any(T):
        raise DegenerateInput("the zero tensor has no residual")
    vecs = [unitize(as_float(vec(a))) for a in points]
    return abs(float(np.einsum(subscripts, T, *vecs))) / norm(T)


def quadrifocal_residual(T, u, v, w, z) -> float:
    """Normalized contraction of the quadrifocal tensor with one image
    point per factor; zero iff the four points correspond."""
    return _contraction("ijkl,i,j,k,l", T, (u, v, w, z))


def mixed_epipolar_tensor(A, B, C):
    """3x2x2 tensor of a pinhole A and a two-slit (B, C):
    f[i,j,k] = (-1)^{i+j+k} det[A_l; A_m; B_other(j); C_other(k)] with
    (l,m) the increasing complement of i; contracting with
    (Ax, Bx, Cx) gives zero."""
    A = _vec_matrix(A, (3, 4), "pinhole matrix")
    B = _vec_matrix(B, (2, 4), "first slit matrix")
    C = _vec_matrix(C, (2, 4), "second slit matrix")
    return _multifocal([A, B, C])


def mixed_residual(T, u, v, w) -> float:
    """Normalized contraction sum_ijk T[i,j,k] u_i v_j w_k."""
    return _contraction("ijk,i,j,k", T, (u, v, w))


# --------------------------------------------------------------------------
# the degree-6 invariant of 3x2x2 tensors

@functools.cache
def sextic_terms():
    """The 66 monomials of the invariant as (coefficient, six (i,j,k)
    entry indices) pairs, parsed once from the packaged term table."""
    text = (importlib.resources.files("gvcam") / "data"
            / "sextic_terms.txt").read_text()
    return tuple(parse_sextic_text(text))


def _sextic_products(T):
    """The terms of the invariant at a 3x2x2 tensor, in table order: each
    coefficient times its six entries, multiplied in turn."""
    if T.shape != (3, 2, 2):
        raise DegenerateInput("expected a 3x2x2 tensor")
    products = []
    for c, idx in sextic_terms():
        prod = c
        for (i, j, k) in idx:
            prod = prod * T[i, j, k]
        products.append(prod)
    return products


def sextic_invariant(T):
    """Degree-6 invariant of a 3x2x2 tensor; vanishes exactly on tensors
    of pinhole/two-slit camera pairs.  Scaling T by lam scales the value
    by lam^6; row operations scale it by det^2 x det^3 x det^3."""
    return sum(_sextic_products(vec(T)))


def sextic_relative(T) -> float:
    """Cancellation residual |S(T)| / max_term |term(T)|: near zero on
    camera tensors, order one on generic tensors."""
    vals = _sextic_products(as_float(vec(T)))
    scale = max(abs(v) for v in vals)
    if scale == 0.0:
        return 0.0
    return float(abs(sum(vals)) / scale)


def parse_sextic_text(text: str):
    """Parse the checked-in plain-text form of the invariant (one term per
    line: '<coeff> f<ijk>[^e] ...') into (coefficient, indices) pairs."""
    out = []
    fac_re = re.compile(r"f(\d)(\d)(\d)(?:\^(\d))?$")
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            coeff = int(parts[0])
        except ValueError:
            raise DegenerateInput("bad coefficient %r" % parts[0]) from None
        idx = []
        for tok in parts[1:]:
            mt = fac_re.match(tok)
            if mt is None:
                raise DegenerateInput("bad factor %r" % tok)
            i, j, k = (int(mt.group(t)) - 1 for t in (1, 2, 3))
            e = int(mt.group(4) or 1)
            idx.extend([(i, j, k)] * e)
        out.append((coeff, tuple(idx)))
    return out


# --------------------------------------------------------------------------
# serialization

_TENSOR_SHAPES = {"fundamental": (3, 3), "quadrifocal": (2, 2, 2, 2),
                  "mixed": (3, 2, 2)}


def tensor_payload(kind: str, T):
    """JSON-ready dict {"kind", "entries"} for a multifocal tensor; exact
    entries serialize as integer/rational strings, floats as floats."""
    if kind not in _TENSOR_SHAPES:
        raise DegenerateInput("unknown tensor kind %r" % kind)
    T = vec(T)
    if T.shape != _TENSOR_SHAPES[kind]:
        raise DegenerateInput("entries do not form a %s tensor" % kind)
    return {"kind": kind, "entries": vector_payload(T)}


def tensor_from_payload(data, exact: bool = False):
    def conv(a, shape):
        if not isinstance(a, list) or len(a) != shape[0]:
            raise DegenerateInput("entries do not form a %s tensor" % kind)
        if len(shape) == 1:
            return [parse_scalar(x, exact=exact) for x in a]
        return [conv(row, shape[1:]) for row in a]

    if not isinstance(data, dict):
        raise DegenerateInput("a tensor payload must be an object, got %r"
                              % (data,))
    kind = data.get("kind")
    if type(kind) is not str or kind not in _TENSOR_SHAPES:
        raise DegenerateInput("unknown tensor kind %r" % (kind,))
    entries = conv(data.get("entries"), _TENSOR_SHAPES[kind])
    return kind, vec(entries, exact=exact or None)
