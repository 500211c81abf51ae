"""Gram matrices of null lifts: normal form, determinants, congruence.

A quadruple of boundary points determines, through any choice of null
lifts P_i, the Hermitian matrix G = (<P_i, P_j>).  Rescaling lifts by
nonzero lambda_i replaces G by the equivalent matrix with entries
lambda_i conj(lambda_j) g_ij, and each equivalence class contains a
unique normal form with zero diagonal, g12 = g23 = g34 = 1 and
|g13| = 1, which ``normalize`` reads off the moduli point (X1, X2, A).
Two quadruples are congruent under a holomorphic isometry precisely
when their moduli points coincide, and under an anti-holomorphic one
precisely when one is (conj X1, conj X2, -A) of the other.

Gram matrices come from two kernels, each returning checked rows.
``_gram`` takes the products of any null lifts (``HermitianVector``s),
checks each lift's nullity and holds each pair to tol(s_i s_j), s_i the
scale of lift i.  ``_points_rows`` builds no lift: for standard lifts
each entry has a closed form in the points' horospherical coordinates,
and each pair is held to a bound by that entry's own terms, which
Heisenberg translations and rotations leave unchanged and dilations
scale with the entry.  The invariants, the Cartan angle and congruence
read the bare rows; ``gram_of`` and ``gram_of_points`` wrap them in a
``GramMatrix`` without deciding coincidence again.  Rows at any scale
of the lifts are read as they are: ``invariants`` keeps each product it
takes in range.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .errors import (
    CoincidentPoints,
    DegenerateEntry,
    DimensionMismatch,
    InvalidFace,
    InvalidParameter,
    NotNormalForm,
    NotNull,
)
from .hermitian import (_complex_values, _form, _is_null, _json_complex, _json_field,
                        _json_list, _numpy_shape, _read_only)
from .numeric import Frozen, NumericConfig, _close, _overflow, _setattr, resolve

if TYPE_CHECKING:
    import numpy as np

FACES = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


class GramMatrix(Frozen, compare=False):
    """Hermitian m x m matrix of pairwise products of null lifts (m = 3 or 4).

    ``rows`` stores the entries as a tuple of tuples of Python complex
    numbers, which is what the readers of the matrix index, and
    ``entries`` is a read-only complex array built from them on each
    access.  A matrix built directly is checked with ``cfg`` (None: the
    default); one from ``gram_of`` or ``gram_of_points`` is not.
    """

    _fields = ("m",)

    def __init__(self, m: int, rows: tuple, cfg: NumericConfig | None = None):
        if m not in (3, 4):
            raise InvalidParameter(f"only 3x3 and 4x4 Gram matrices are supported, got m={m}")
        checked = _complex_values(rows, (m, m))
        if checked is None:
            raise DimensionMismatch(f"expected shape {(m, m)}, got {_numpy_shape(rows)}")
        rows = checked
        flat = [v for row in rows for v in row]
        if not all(map(cmath.isfinite, flat)):
            raise InvalidParameter("Gram matrix entries must be finite")
        try:
            scale = max(map(abs, flat))
        except OverflowError:  # |g_ij| of finite parts beyond the float range
            raise _overflow(*((f"g{i + 1}{j + 1}", rows[i][j])
                              for i in range(m) for j in range(m))) from None
        tol = resolve(cfg).tol(scale)
        if not _close(tol, *(rows[i][j] - rows[j][i].conjugate()
                             for i in range(m) for j in range(i, m))):
            raise InvalidParameter("Gram matrix must be Hermitian")
        if any(abs(rows[i][i]) > tol for i in range(m)):
            raise NotNull("Gram diagonal must vanish (lifts must be isotropic)")
        for i in range(m):
            for j in range(i + 1, m):
                if abs(rows[i][j]) <= tol:
                    raise CoincidentPoints(f"off-diagonal entry ({i + 1},{j + 1}) vanishes")
        _set_gram(self, m, rows, cfg)

    @property
    def entries(self) -> np.ndarray:
        return _read_only(self.rows)

    def to_json(self) -> list:
        return [[[v.real, v.imag] for v in row] for row in self.rows]

    @classmethod
    def from_json(cls, rows: list, cfg: NumericConfig | None = None) -> "GramMatrix":
        """Parse to_json output; a malformed entry raises ValueError naming its JSON path."""
        rows = _json_list(rows, "gram")
        return cls(len(rows), [[_json_complex(v, f"gram[{i}][{j}]")
                                for j, v in enumerate(_json_list(row, f"gram[{i}]"))]
                               for i, row in enumerate(rows)], cfg)


def _set_gram(G: GramMatrix, m: int, rows: tuple, cfg: NumericConfig | None):
    _setattr(G, "m", m)
    _setattr(G, "rows", rows)
    _setattr(G, "cfg", cfg)


class NormalizedGram(Frozen):
    """The normal form: only g13, g14, g24 are free; |g13| = 1; checked with ``cfg``."""

    _fields = ("g13", "g14", "g24")

    def __init__(self, g13: complex, g14: complex, g24: complex,
                 cfg: NumericConfig | None = None):
        g13, g14, g24 = complex(g13), complex(g14), complex(g24)
        if not (cmath.isfinite(g13) and cmath.isfinite(g14) and cmath.isfinite(g24)):
            raise InvalidParameter("normal form entries must be finite")
        _setattr(self, "g13", g13)
        _setattr(self, "g14", g14)
        _setattr(self, "g24", g24)
        _setattr(self, "cfg", cfg)
        c = resolve(cfg)
        try:
            if abs(abs(g13) - 1.0) > c.tol(1.0):
                raise NotNormalForm(f"|g13| must be 1, got {abs(g13)}")
            r14 = abs(g14)  # ModuliPoint's guard: |X2| = 1/r14 and |X1| = |g24|/r14
            if r14 == 0.0 or c.abs_tol * r14 >= 1.0 or abs(g24) <= c.abs_tol * r14:
                raise DegenerateEntry("g14 and g24 must be nonzero in a normal form")
        except OverflowError:  # a modulus of finite parts beyond the float range
            raise _overflow(("g13", g13), ("g14", g14), ("g24", g24)) from None

    @property
    def rows(self) -> tuple:
        """The full 4x4 matrix this normal form stands for, as Python complex rows."""
        g13, g14, g24 = self.g13, self.g14, self.g24
        return ((0j, 1 + 0j, g13, g14),
                (1 + 0j, 0j, 1 + 0j, g24),
                (g13.conjugate(), 1 + 0j, 0j, 1 + 0j),
                (g14.conjugate(), g24.conjugate(), 1 + 0j, 0j))

    def matrix(self) -> np.ndarray:
        """The full 4x4 matrix this normal form stands for, read-only."""
        return _read_only(self.rows)

    def conjugate(self) -> "NormalizedGram":
        return NormalizedGram(self.g13.conjugate(), self.g14.conjugate(), self.g24.conjugate(),
                              self.cfg)

    def isclose(self, other: "NormalizedGram", cfg: NumericConfig | None = None) -> bool:
        c = resolve(cfg)
        scale = max(1.0, abs(self.g14), abs(other.g14), abs(self.g24), abs(other.g24))
        return _close(c.tol(scale), self.g13 - other.g13, self.g14 - other.g14,
                      self.g24 - other.g24)

    def to_json(self) -> dict:
        return {"g13": [self.g13.real, self.g13.imag],
                "g14": [self.g14.real, self.g14.imag],
                "g24": [self.g24.real, self.g24.imag]}

    @classmethod
    def from_json(cls, obj: dict, cfg: NumericConfig | None = None,
                  path: str = "normal_form") -> "NormalizedGram":
        """Parse to_json output; a malformed field raises ValueError naming its JSON path."""
        return cls(*(_json_complex(_json_field(obj, k, path), f"{path}.{k}")
                     for k in ("g13", "g14", "g24")), cfg)


def gram_of(lifts, cfg: NumericConfig | None = None) -> GramMatrix:
    """Gram matrix of three or four null lifts.

    Points i and j coincide when |<P_i, P_j>| <= tol(s_i s_j), s_i the largest
    coordinate magnitude of lift i: the package's one rule for distinct points.
    """
    c = resolve(cfg)
    return _wrap(_gram(lifts, c), c)


def gram_of_points(points, cfg: NumericConfig | None = None) -> GramMatrix:
    """Gram matrix of the standard lifts of three or four boundary points, in closed form.

    For finite points i < j the entry is
    g_ij = -|z_i - z_j|^2 + i(t_i - t_j + 2 Im<z_i - z_j, z_j>), the squared
    Koranyi-Cygan distance in modulus, and g_ij = 1 when one point is at
    infinity.  Points i and j coincide when |g_ij| <= tol(|dz|^2 + |dt| +
    2|dz||z_j|), a bound by the entry's own terms, and two points at infinity
    coincide.  A pair whose entry or bound leaves the float range raises
    OverflowError naming the coordinates' magnitude, or InvalidParameter when
    a coordinate is not finite.  The kernel ``_points_rows`` reads each point
    once and returns the rows, which the invariants read without this wrapper.
    """
    c = resolve(cfg)
    return _wrap(_points_rows(points, c), c)


def _wrap(rows: tuple, c: NumericConfig) -> GramMatrix:
    """A GramMatrix of rows that a kernel has checked: GramMatrix's __init__, which would
    decide coincidence again, does not run."""
    G = object.__new__(GramMatrix)
    _set_gram(G, len(rows), rows, c)
    return G


def _points_rows(points, c: NumericConfig) -> tuple:
    """``gram_of_points``'s checked rows.  Errors, in order: DimensionMismatch, all points
    at infinity, the count, then each pair in turn."""
    reads = []
    width = None
    for p in points:
        if p.at_infinity:
            reads.append(None)
            continue
        flat = []
        for v in p.z:
            flat += v.real, v.imag
        if width is None:
            width = len(flat)
        elif width != len(flat):
            raise DimensionMismatch("points live in different dimensions")
        reads.append((flat, p.t, math.hypot(*flat)))
    if width is None:
        raise CoincidentPoints("all points are at infinity")
    m = len(points)
    _check_count(m)
    a, r = c.abs_tol, c.rel_tol
    rows = [[0j] * m for _ in range(m)]
    for i in range(m - 1):
        u = reads[i]
        for j in range(i + 1, m):
            v = reads[j]
            if u is None or v is None:
                if u is v:
                    raise CoincidentPoints(f"points {i + 1} and {j + 1} coincide")
                g = 1 + 0j
            else:
                pz, pt, _ = u
                qz, qt, norm = v
                dz2 = im = 0.0
                for k in range(0, width, 2):  # the real and imaginary parts of one coordinate
                    qr, qi = qz[k], qz[k + 1]
                    dr, di = pz[k] - qr, pz[k + 1] - qi
                    dz2 += dr * dr + di * di
                    im += di * qr - dr * qi
                dt = pt - qt
                g = complex(0.0 - dz2, dt + 2.0 * im)  # 0.0 - 0.0 is +0.0, as <P_i, P_j> gives
                try:
                    size = abs(g)
                except OverflowError:  # |g| of finite parts beyond the float range
                    size = math.inf
                bound = a + r * dz2 + r * abs(dt) + 2.0 * r * math.sqrt(dz2) * norm
                if not size < math.inf > bound:  # also when either is NaN
                    raise _out_of_range(points[i], points[j], i, j)
                if size <= bound:
                    raise CoincidentPoints(f"points {i + 1} and {j + 1} coincide")
            rows[i][j] = g
            rows[j][i] = g.conjugate()
    return tuple(map(tuple, rows))


def _out_of_range(p, q, i: int, j: int) -> Exception:
    """The error of finite points i < j whose Gram entry or distinctness bound is not finite."""
    parts = [x for v in p.z + q.z for x in (v.real, v.imag)] + [p.t, q.t]
    if all(map(math.isfinite, parts)):
        return OverflowError(f"<P{i + 1},P{j + 1}> overflows for coordinates of magnitude "
                             f"{max(map(abs, parts))}")
    return InvalidParameter("Gram matrix entries must be finite")


def _check_count(m: int):
    if m not in (3, 4):
        raise InvalidParameter(f"expected 3 or 4 lifts, got {m}")


def _gram(lifts, c: NumericConfig) -> tuple:
    """``gram_of``'s checked rows: the Gram kernel of lifts.

    Checks, in order, the count, that the lifts share a dimension, each
    lift's scale, each lift's nullity at its scale, each pair by
    ``gram_of``'s rule, and last that every product is finite.
    """
    _check_count(len(lifts))
    if any(P.n != lifts[0].n for P in lifts):
        raise DimensionMismatch("lifts live in different dimensions")
    coords, scales = [P.values for P in lifts], [P.scale() for P in lifts]
    for z, s in zip(coords, scales):
        if not _is_null(z, s, c):
            raise NotNull(f"lift is not isotropic: <P,P> = {_form(z, z)}")
    m = len(lifts)
    rows = [[0j] * m for _ in range(m)]
    mags = []
    for i in range(m):
        for j in range(i + 1, m):
            g = _form(coords[i], coords[j])
            try:
                mags.append(abs(g))
            except OverflowError:  # |g| of finite parts beyond the float range
                big = max(abs(g.real), abs(g.imag))
                raise OverflowError(f"|<P{i + 1},P{j + 1}>| overflows for parts of "
                                    f"magnitude {big}") from None
            if mags[-1] <= c.tol(scales[i] * scales[j]):
                raise CoincidentPoints(f"points {i + 1} and {j + 1} coincide")
            rows[i][j] = g
            rows[j][i] = g.conjugate()
    if not all(map(math.isfinite, mags)):
        raise InvalidParameter("Gram matrix entries must be finite")
    return tuple(map(tuple, rows))


def normalize(G: GramMatrix, cfg: NumericConfig | None = None) -> NormalizedGram:
    """Unique normal form of G's equivalence class: the dictionary image of its moduli point.

    The moduli point is read off G's rows as they are, at any scale of the lifts.
    """
    from .invariants import _moduli, gram_from_moduli

    if G.m != 4:
        raise InvalidParameter("normalization is defined for quadruples (m=4)")
    return gram_from_moduli(_moduli(G.rows, resolve(cfg)))


def normalized_gram_of_points(points, cfg: NumericConfig | None = None) -> NormalizedGram:
    """Normal form of a quadruple of boundary points via standard lifts."""
    return normalize(gram_of_points(points, cfg), cfg)


def det_gram(G: NormalizedGram) -> float:
    """Determinant of the normal form, by the closed formula."""
    g13, g14, g24 = G.g13, G.g14, G.g24
    return (-2.0 * g14.real
            - 2.0 * (g13 * g24.conjugate()).real
            - 2.0 * (g13 * g14.conjugate() * g24).real
            + abs(g14) ** 2 + abs(g24) ** 2 + 1.0)


def _face_det(g, face) -> float:
    """Determinant of the principal minor of Gram rows g on a 1-based face: 2 Re g_ij g_jk g_ki."""
    i, j, k = face
    return 2.0 * (g[i - 1][j - 1] * g[j - 1][k - 1] * g[k - 1][i - 1]).real


def det_face(G: NormalizedGram, face) -> float:
    """Determinant of the 3x3 principal minor picked out by a face.

    Faces are the 1-based triples of ``FACES``. For actual configurations
    all four values are <= 0 and vanish exactly when the face lies on a chain.
    """
    face = tuple(face)
    if face not in FACES:
        raise InvalidFace(f"face must be one of {FACES}, got {face}")
    return _face_det(G.rows, FACES[FACES.index(face)])


def congruent_holomorphic(p, q, cfg: NumericConfig | None = None) -> bool:
    """Are two quadruples congruent under a holomorphic isometry, i.e. their moduli points close?"""
    from .invariants import _moduli, _quadruple_gram

    mp, mq = (_moduli(_quadruple_gram(x, cfg), cfg) for x in (p, q))
    return mp.isclose(mq, cfg)


def congruent_antiholomorphic(p, q, cfg: NumericConfig | None = None) -> bool:
    """Are two quadruples congruent under an anti-holomorphic isometry (X -> conj X, A -> -A)?"""
    from .invariants import ModuliPoint, _moduli, _quadruple_gram

    mp, mq = (_moduli(_quadruple_gram(x, cfg), cfg) for x in (p, q))
    return mp.isclose(ModuliPoint(mq.x1.conjugate(), mq.x2.conjugate(), -mq.cartan, cfg), cfg)
