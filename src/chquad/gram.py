"""Gram matrices of null lifts, and the Gram normal form.

A quadruple of boundary points determines, through any choice of null
lifts P_i, the Hermitian matrix G = (<P_i, P_j>).  Rescaling lift i by
lambda_i maps g_ij to lambda_i conj(lambda_j) g_ij, and each class holds
one normal form: zero diagonal, g12 = g23 = g34 = 1 and |g13| = 1.  Its
free entries give X1 = conj(g13 g24 / g14), X2 = 1/conj(g14) and
A = arg(-conj(g13)), inverted by ``invariants._dictionary``; only the
squares of g13 and g24 are determined by the cross-ratios alone, which
is why A is part of the moduli data.

The rows of G come from two kernels, each checking the pairs i < j of
``points._PAIRS`` in row order.  ``_gram`` takes the products of null lifts
(``HermitianVector``s), checks each lift's nullity and holds each pair
to tol(s_i s_j), s_i the scale of lift i; ``points._points_rows``
evaluates the standard lifts' entries in closed form.  Three values are
built of checked parts without their own checks: the ``GramMatrix`` of
``gram_of`` and ``gram_of_points`` (a kernel's rows), the
``NormalizedGram`` of ``gram_from_moduli`` and ``conjugate`` (a guarded
moduli point) and ``moduli.reconstruct``'s lifts (numbers it computed).
This is the top of the lift side; ``FACES`` and ``congruent_*`` of
``invariants`` are names of it too.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .errors import (CoincidentPoints, DegenerateEntry, DimensionMismatch, InvalidFace,
                     InvalidParameter, NotNormalForm, NotNull)
from .hermitian import _complex_values, _form, _is_null, _numpy_shape, _read_only
from .invariants import (FACES, ModuliPoint, _cartan, _cross_ratio, _dictionary, _face_dets,
                         _moduli, congruent_antiholomorphic, congruent_holomorphic)
from .numeric import Frozen, NumericConfig, _close, _overflow, _setattr, resolve
from .points import (_PAIRS, _TINY, _check_count, _hermitian_rows, _json_complex, _json_field,
                     _json_list, _points_rows, _underflow)

if TYPE_CHECKING:
    import numpy as np


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
        for i, j in _PAIRS[m]:
            if abs(rows[i][j]) <= tol:
                raise CoincidentPoints(f"off-diagonal entry ({i + 1},{j + 1}) vanishes")
        _set_gram(self, rows, cfg)

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


def _set_gram(G: GramMatrix, rows: tuple, cfg: NumericConfig | None) -> GramMatrix:
    """G with its fields set once: a kernel's checked rows reach it through
    ``object.__new__``, as GramMatrix's __init__ would decide coincidence again."""
    _setattr(G, "m", len(rows))
    _setattr(G, "rows", rows)
    _setattr(G, "cfg", cfg)
    return G


def gram_of(lifts, cfg: NumericConfig | None = None) -> GramMatrix:
    """Gram matrix of three or four null lifts.

    Lifts i and j coincide when |<P_i, P_j>| <= tol(s_i s_j), s_i the largest coordinate
    magnitude of lift i; ``points._points_rows`` holds points to a rule of their own.
    """
    c = resolve(cfg)
    return _set_gram(object.__new__(GramMatrix), _gram(lifts, c), c)


def gram_of_points(points, cfg: NumericConfig | None = None) -> GramMatrix:
    """Gram matrix of the standard lifts of three or four boundary points, in closed form.

    The rows are those of the kernel ``points._points_rows``, which holds each pair to a
    bound by its entry's own terms; the invariants read them without this wrapper.
    """
    c = resolve(cfg)
    return _set_gram(object.__new__(GramMatrix), _points_rows(points, c), c)


def _gram(lifts, c: NumericConfig) -> tuple:
    """``gram_of``'s checked rows: the Gram kernel of lifts.

    Checks, in order, the count, that the lifts share a dimension, each
    lift's scale, each lift's nullity at its scale, each pair by
    ``gram_of``'s rule and for a subnormal modulus (UnderflowError), and
    last that every product is finite.
    """
    _check_count(len(lifts), "lifts")
    if any(P.n != lifts[0].n for P in lifts):
        raise DimensionMismatch("lifts live in different dimensions")
    coords, scales = [P.values for P in lifts], [P.scale() for P in lifts]
    for z, s in zip(coords, scales):
        if not _is_null(z, s, c):
            raise NotNull(f"lift is not isotropic: <P,P> = {_form(z, z)}")
    upper, mags = [], []
    for i, j in _PAIRS[len(lifts)]:
        g = _form(coords[i], coords[j])
        upper.append(g)
        try:
            mags.append(abs(g))
        except OverflowError:  # |g| of finite parts beyond the float range
            raise _overflow((f"<P{i + 1},P{j + 1}>", g)) from None
        if mags[-1] <= c.tol(scales[i] * scales[j]):
            raise CoincidentPoints(f"points {i + 1} and {j + 1} coincide")
        if mags[-1] < _TINY:
            raise _underflow(i, j, mags[-1])
    if not all(map(math.isfinite, mags)):
        raise InvalidParameter("Gram matrix entries must be finite")
    return _hermitian_rows(upper)


def cartan_from_lifts(P1, P2, P3, cfg: NumericConfig | None = None) -> float:
    return _cartan(_gram((P1, P2, P3), resolve(cfg)), 0, 1, 2, cfg)


def cross_ratio_from_lifts(P1, P2, P3, P4, cfg: NumericConfig | None = None) -> complex:
    return _cross_ratio(_gram((P1, P2, P3, P4), resolve(cfg)), 0, 1, 2, 3)


def normalize(G: GramMatrix, cfg: NumericConfig | None = None) -> NormalizedGram:
    """Unique normal form of G's equivalence class: the dictionary image of its moduli point.

    The moduli point is read off G's rows as they are, at any scale of the lifts.
    """
    if G.m != 4:
        raise InvalidParameter("normalization is defined for quadruples (m=4)")
    return gram_from_moduli(_moduli(G.rows, resolve(cfg)))


def normalized_gram_of_points(points, cfg: NumericConfig | None = None) -> NormalizedGram:
    """Normal form of a quadruple of boundary points via standard lifts."""
    return normalize(gram_of_points(points, cfg), cfg)


class NormalizedGram(Frozen):
    """The normal form: only g13, g14, g24 are free; |g13| = 1.  Checked with ``cfg`` (None:
    the default) unless it comes from ``gram_from_moduli`` or ``conjugate``."""

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
        return _unchecked([v.conjugate() for v in self._key(self)], self.cfg)

    def isclose(self, other: "NormalizedGram", cfg: NumericConfig | None = None) -> bool:
        c = resolve(cfg)
        scale = max(1.0, abs(self.g14), abs(other.g14), abs(self.g24), abs(other.g24))
        return _close(c.tol(scale), self.g13 - other.g13, self.g14 - other.g14,
                      self.g24 - other.g24)

    def to_json(self) -> dict:
        return {name: [v.real, v.imag] for name, v in zip(self._fields, self._key(self))}

    @classmethod
    def from_json(cls, obj: dict, cfg: NumericConfig | None = None,
                  path: str = "normal_form") -> "NormalizedGram":
        """Parse to_json output; a malformed field raises ValueError naming its JSON path."""
        return cls(*(_json_complex(_json_field(obj, k, path), f"{path}.{k}")
                     for k in ("g13", "g14", "g24")), cfg)


def _unchecked(entries, cfg: NumericConfig | None) -> NormalizedGram:
    """A NormalizedGram of checked entries (g13, g14, g24): its __init__ does not run."""
    G = object.__new__(NormalizedGram)
    for name, v in zip(("g13", "g14", "g24", "cfg"), (*entries, cfg)):
        _setattr(G, name, v)
    return G


def gram_from_moduli(m: ModuliPoint) -> NormalizedGram:
    """The Gram normal form of (X1, X2, A), with m's config: m's guard has run, and
    ``invariants._dictionary`` raises for an entry outside the float range."""
    return _unchecked(_dictionary(m.x1, m.x2, m.cartan), m.cfg)


def moduli_from_gram(G: NormalizedGram, cfg: NumericConfig | None = None) -> ModuliPoint:
    """Read (X1, X2, A) off a Gram normal form."""
    return _moduli(G.rows, cfg)


def det_gram(G: NormalizedGram) -> float:
    """Determinant of the normal form, by the closed formula."""
    g13, g14, g24 = G.g13, G.g14, G.g24
    return (-2.0 * g14.real
            - 2.0 * (g13 * g24.conjugate()).real
            - 2.0 * (g13 * g14.conjugate() * g24).real
            + abs(g14) ** 2 + abs(g24) ** 2 + 1.0)


def det_face(G: NormalizedGram, face) -> float:
    """Determinant of the 3x3 principal minor picked out by a face.

    Faces are the 1-based triples of ``FACES``. For actual configurations
    all four values are <= 0 and vanish exactly when the face lies on a chain.
    """
    face = tuple(face)
    if face not in FACES:
        raise InvalidFace(f"face must be one of {FACES}, got {face}")
    return _face_dets(G.g13, G.g14, G.g24)[FACES.index(face)]
