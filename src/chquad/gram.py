"""Gram matrices of null lifts, and the normal form of a Gram matrix.

A quadruple of boundary points determines, through any choice of null
lifts P_i, the Hermitian matrix G = (<P_i, P_j>), whose rescaling class
holds one normal form (see ``invariants``); ``normalize`` reads it off
the moduli point (X1, X2, A).

Gram matrices come from two kernels, each returning checked rows.
``_gram`` takes the products of any null lifts (``HermitianVector``s),
checks each lift's nullity and holds each pair to tol(s_i s_j), s_i the
scale of lift i.  ``points._points_rows`` builds no lift: it evaluates
each entry of the standard lifts' matrix in closed form.  Both check
the entries above the diagonal, in row order, and return through one
row assembly, ``points._hermitian_rows``, which adds the zero diagonal
and the conjugates.  The invariants read the bare rows; ``gram_of`` and
``gram_of_points`` wrap them in a ``GramMatrix`` without deciding
coincidence again.

This module is the top of the lift side.  ``FACES``, ``NormalizedGram``,
``det_gram``, ``det_face`` and ``congruent_*`` are defined in
``invariants`` and are names of this module too.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .errors import CoincidentPoints, DimensionMismatch, InvalidParameter, NotNull
from .hermitian import _complex_values, _form, _is_null, _numpy_shape, _read_only
from .invariants import (FACES, NormalizedGram, _moduli, congruent_antiholomorphic,
                         congruent_holomorphic, det_face, det_gram, gram_from_moduli)
from .numeric import Frozen, NumericConfig, _close, _overflow, _setattr, resolve
from .points import (_TINY, _check_count, _hermitian_rows, _json_complex, _json_list,
                     _points_rows, _underflow)

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


def gram_of(lifts, cfg: NumericConfig | None = None) -> GramMatrix:
    """Gram matrix of three or four null lifts.

    Points i and j coincide when |<P_i, P_j>| <= tol(s_i s_j), s_i the largest
    coordinate magnitude of lift i: the package's one rule for distinct points.
    """
    c = resolve(cfg)
    return _wrap(_gram(lifts, c), c)


def gram_of_points(points, cfg: NumericConfig | None = None) -> GramMatrix:
    """Gram matrix of the standard lifts of three or four boundary points, in closed form.

    The rows are those of the kernel ``points._points_rows``, which holds each pair to a
    bound by its entry's own terms; the invariants read them without this wrapper.
    """
    c = resolve(cfg)
    return _wrap(_points_rows(points, c), c)


def _wrap(rows: tuple, c: NumericConfig) -> GramMatrix:
    """A GramMatrix of rows that a kernel has checked: GramMatrix's __init__, which would
    decide coincidence again, does not run."""
    G = object.__new__(GramMatrix)
    _set_gram(G, len(rows), rows, c)
    return G


def _gram(lifts, c: NumericConfig) -> tuple:
    """``gram_of``'s checked rows: the Gram kernel of lifts.

    Checks, in order, the count, that the lifts share a dimension, each
    lift's scale, each lift's nullity at its scale, each pair by
    ``gram_of``'s rule and for a subnormal modulus (UnderflowError), and
    last that every product is finite.
    """
    _check_count(len(lifts))
    if any(P.n != lifts[0].n for P in lifts):
        raise DimensionMismatch("lifts live in different dimensions")
    coords, scales = [P.values for P in lifts], [P.scale() for P in lifts]
    for z, s in zip(coords, scales):
        if not _is_null(z, s, c):
            raise NotNull(f"lift is not isotropic: <P,P> = {_form(z, z)}")
    m = len(lifts)
    upper, mags = [], []
    for i in range(m):
        for j in range(i + 1, m):
            g = _form(coords[i], coords[j])
            upper.append(g)
            try:
                mags.append(abs(g))
            except OverflowError:  # |g| of finite parts beyond the float range
                big = max(abs(g.real), abs(g.imag))
                raise OverflowError(f"|<P{i + 1},P{j + 1}>| overflows for parts of "
                                    f"magnitude {big}") from None
            if mags[-1] <= c.tol(scales[i] * scales[j]):
                raise CoincidentPoints(f"points {i + 1} and {j + 1} coincide")
            if mags[-1] < _TINY:
                raise _underflow(i, j, mags[-1])
    if not all(map(math.isfinite, mags)):
        raise InvalidParameter("Gram matrix entries must be finite")
    return _hermitian_rows(upper)


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


