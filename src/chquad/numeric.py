"""Floating-point tolerance policy.

Every comparison in the package takes a ``NumericConfig`` from its
caller; ``None`` stands for ``DEFAULT``, and there is no process-wide
setting.  Values (``GramMatrix``, ``NormalizedGram``, ``ModuliPoint``,
``Isometry``) validate with the config they were built with: a
function passes its own to every value it builds, and a value derived
from another (a conjugate, a composite, the normal form of a moduli
point) keeps that value's.  Checks against a quantity with a natural
scale use ``abs_tol + rel_tol * scale`` where the scale is the largest
magnitude involved.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericConfig:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def tol(self, scale: float = 1.0) -> float:
        return self.abs_tol + self.rel_tol * abs(scale)


DEFAULT = NumericConfig()


def resolve(cfg: NumericConfig | None) -> NumericConfig:
    return DEFAULT if cfg is None else cfg


def small(x: complex, scale: float = 1.0, cfg: NumericConfig | None = None) -> bool:
    """Is |x| negligible against the given scale?"""
    return abs(x) <= resolve(cfg).tol(scale)
