"""Floating-point tolerance policy, and the base of the package's values.

Every comparison in the package takes a ``NumericConfig`` from its
caller; ``None`` stands for ``DEFAULT``, and there is no process-wide
setting.  Values (``GramMatrix``, ``NormalizedGram``, ``ModuliPoint``,
``Isometry``) validate with the config they were built with: a
function passes its own to every value it builds, and a value derived
from another (a conjugate, a composite, the normal form of a moduli
point) keeps that value's.  Checks against a quantity with a natural
scale use ``abs_tol + rel_tol * scale`` where the scale is the largest
magnitude involved.  By the range rule, a product whose modulus lies in
the window [2^-500, 2^500] is taken as it reads, and otherwise formed on
factors scaled exactly by powers of two.
"""

from __future__ import annotations

import math
from operator import attrgetter

_setattr = object.__setattr__  # how an __init__ sets a field of a Frozen value, once
_LO, _HI = 2.0 ** -500, 2.0 ** 500  # the range rule's window (module docstring)


class Frozen:
    """Base of the package's immutable values.

    A subclass names its fields in ``_fields``, which ``repr`` shows in
    order and which ``==`` and ``hash`` compare; ``compare=False`` in the
    class statement keeps identity equality instead.  Its ``__init__``
    sets each field with ``_setattr``; setting or deleting an attribute
    afterwards raises ``dataclasses.FrozenInstanceError``.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, compare: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)  # a tuple: each compared class names 2+ fields
        if not compare:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class NumericConfig(Frozen):
    _fields = ("abs_tol", "rel_tol")

    def __init__(self, abs_tol: float = 1e-9, rel_tol: float = 1e-9):
        if not (0 <= abs_tol < math.inf and 0 <= rel_tol < math.inf):  # also when one is NaN
            from .errors import InvalidParameter
            raise InvalidParameter(f"abs_tol={abs_tol!r}, rel_tol={rel_tol!r}: need 0 <= tol < inf")
        _setattr(self, "abs_tol", abs_tol)
        _setattr(self, "rel_tol", rel_tol)

    def tol(self, scale: float = 1.0) -> float:
        return self.abs_tol + self.rel_tol * abs(scale)


DEFAULT = NumericConfig()


def resolve(cfg: NumericConfig | None) -> NumericConfig:
    return DEFAULT if cfg is None else cfg


def small(x: complex, scale: float = 1.0, cfg: NumericConfig | None = None) -> bool:
    """Is |x| negligible against the given scale?"""
    return abs(x) <= resolve(cfg).tol(scale)


def _ldexp(x: float, e: int) -> float:
    """x 2^e, rounded once; +-inf beyond the float range, as a product overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _close(tol: float, *differences) -> bool:
    """Is |a - b| <= tol for each difference a - b, in order?  One whose modulus leaves the
    float range is not: it exceeds any finite tolerance.  A NaN is not either."""
    try:
        for d in differences:
            if not abs(d) <= tol:
                return False
    except OverflowError:  # |a - b| of finite parts beyond the float range
        return False
    return True


def _overflow(*fields) -> OverflowError:
    """OverflowError naming the first (name, value) field whose modulus, of finite parts,
    leaves the float range; a handler of abs()'s error passes every field it took."""
    for name, v in fields:
        try:
            abs(v)
        except OverflowError:
            big = max(abs(v.real), abs(v.imag))
            return OverflowError(f"|{name}| overflows for parts of magnitude {big}")
