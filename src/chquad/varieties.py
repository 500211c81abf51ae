"""The cross-ratio variety and its failure as a coordinate system.

The Parker-Platis coordinates of a quadruple are the three cross-ratios
(X1, X2, X3); their image lies on the variety cut out by

    |X2| = |X1| |X3|,
    2 |X1|^2 Re(X3) = |X1|^2 + |X2|^2 + 1 - 2 Re(X1 + X2).

Projecting moduli coordinates onto that variety via
X3 = (X2/X1) e^{2iA} forgets the sign of A, so the two chain
configurations with Cartan invariants +-pi/2 and the same real
(X1, X2) collapse to one triple.  ``counterexample_pair`` produces the
witness family: the vertical-chain quadruples
p(t) = ((0,0), inf, (0,1), (0,t)) and their mirror images share all
three cross-ratios while not being congruent under any holomorphic
isometry.
"""

from __future__ import annotations

import cmath

from .errors import CertificateFailure, InvalidParameter
from .invariants import (CrossRatioTriple, ModuliPoint, _cross_ratios, _isclose, _moduli,
                         _quadruple_gram)
from .numeric import Frozen, NumericConfig, _setattr, resolve
from .points import _PAIRS, BoundaryPoint


def variety_residuals(x: CrossRatioTriple):
    """Residuals of the two defining relations of the cross-ratio variety."""
    r1 = abs(x.x2) - abs(x.x1) * abs(x.x3)
    r2 = (2.0 * abs(x.x1) ** 2 * x.x3.real
          - abs(x.x1) ** 2 - abs(x.x2) ** 2 - 1.0 + 2.0 * (x.x1 + x.x2).real)
    return (r1, r2)


def project_moduli(m: ModuliPoint) -> CrossRatioTriple:
    """Collapse (X1, X2, A) to the cross-ratio triple via X3 = (X2/X1) e^{2iA}."""
    return CrossRatioTriple(m.x1, m.x2, (m.x2 / m.x1) * cmath.exp(2j * m.cartan))


def counterexample_pair(t: float, cfg: NumericConfig | None = None):
    """The witness quadruples p(t) and its mirror image, for t > 0, t != 1."""
    c = resolve(cfg)
    t = float(t)
    if t <= 0.0 or abs(t - 1.0) <= c.tol(1.0):
        raise InvalidParameter(f"need t > 0 and t != 1, got t={t}")
    p = (
        BoundaryPoint.finite([0.0], 0.0),
        BoundaryPoint.infinity(),
        BoundaryPoint.finite([0.0], 1.0),
        BoundaryPoint.finite([0.0], t),
    )
    return p, tuple(q.mirror() for q in p)


def _product_table(g) -> dict:
    return {f"{i + 1}{j + 1}": [g[i][j].real, g[i][j].imag] for i, j in _PAIRS[4]}


class Certificate(Frozen):
    """Checked evidence that two distinct quadruple classes share cross-ratios."""

    _fields = ("t", "quadruple", "mirror_quadruple", "products", "mirror_products", "triple",
               "mirror_triple", "moduli", "mirror_moduli", "holomorphic_congruent",
               "antiholomorphic_congruent")

    def __init__(self, t: float, quadruple: tuple, mirror_quadruple: tuple, products: dict,
                 mirror_products: dict, triple: CrossRatioTriple,
                 mirror_triple: CrossRatioTriple, moduli: ModuliPoint,
                 mirror_moduli: ModuliPoint, holomorphic_congruent: bool,
                 antiholomorphic_congruent: bool):
        for name, value in zip(self._fields, (
                t, quadruple, mirror_quadruple, products, mirror_products, triple,
                mirror_triple, moduli, mirror_moduli, holomorphic_congruent,
                antiholomorphic_congruent)):
            _setattr(self, name, value)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "quadruple": {"n": 2, "points": [q.to_json() for q in self.quadruple]},
            "mirror_quadruple": {"n": 2, "points": [q.to_json() for q in self.mirror_quadruple]},
            "hermitian_products": self.products,
            "mirror_hermitian_products": self.mirror_products,
            "cross_ratios": self.triple.to_json(),
            "mirror_cross_ratios": self.mirror_triple.to_json(),
            "moduli": self.moduli.to_json(),
            "mirror_moduli": self.mirror_moduli.to_json(),
            "holomorphic_congruent": self.holomorphic_congruent,
            "antiholomorphic_congruent": self.antiholomorphic_congruent,
        }


def certify_noninjectivity(t: float, cfg: NumericConfig | None = None) -> Certificate:
    """Build and verify the full counterexample record at parameter t.

    Checks, in order: the two quadruples share their cross-ratio
    triple; they are not congruent holomorphically; they are congruent
    anti-holomorphically; their moduli coordinates differ exactly in
    the sign of the Cartan invariant.
    """
    c = resolve(cfg)
    p, q = counterexample_pair(t, c)
    gp, gq = _quadruple_gram(p, c), _quadruple_gram(q, c)
    triple, mirror_triple = _cross_ratios(gp), _cross_ratios(gq)
    mp, mq = _moduli(gp, c), _moduli(gq, c)
    if not triple.isclose(mirror_triple, c):
        raise CertificateFailure("shared-cross-ratios",
                                 f"{triple} != {mirror_triple}")
    holo = mp.isclose(mq, c)  # congruent_holomorphic(p, q, c) on these moduli points
    if holo:
        raise CertificateFailure("not-holomorphically-congruent",
                                 "the pair is congruent after all")
    x = mp._key(mp)  # (X1, X2, A), held to mq's mirror, then to mq with A negated
    anti = _isclose(x, (mq.x1.conjugate(), mq.x2.conjugate(), -mq.cartan), c)
    if not anti:
        raise CertificateFailure("antiholomorphically-congruent",
                                 "mirror congruence missing")
    if not _isclose(x, (mq.x1, mq.x2, -mq.cartan), c):
        raise CertificateFailure("opposite-cartan",
                                 f"moduli {mp} vs {mq}")
    return Certificate(
        t=t,
        quadruple=p,
        mirror_quadruple=q,
        products=_product_table(gp),
        mirror_products=_product_table(gq),
        triple=triple,
        mirror_triple=mirror_triple,
        moduli=mp,
        mirror_moduli=mq,
        holomorphic_congruent=holo,
        antiholomorphic_congruent=anti,
    )
